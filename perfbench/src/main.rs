//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! prints a readable summary, then the result as one JSON line. Exits 1
//! when a correctness check fails and 2 on a usage or set-up error.

use sat_perfbench::{run, Args, USAGE};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("# {line}");
            }
            println!("{}", outcome.json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
