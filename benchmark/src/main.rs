fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = idabench::cli::main(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    });
    std::process::exit(code);
}
