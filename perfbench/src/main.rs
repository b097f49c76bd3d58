//! Command-line entry point; see the library docs for the contract.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", perfbench::USAGE);
            std::process::exit(2);
        }
    };
    let report = perfbench::run(&args);
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
