use campaignbench::{Args, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaignbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = campaignbench::run(&args);
    let tally = &outcome.tally;
    println!(
        "{} seed {} ({}):",
        args.workload.name(),
        args.seed,
        if args.trace {
            "traced layer pass"
        } else {
            "end to end"
        }
    );
    print!("{}", outcome.metrics.render());
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "error_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
