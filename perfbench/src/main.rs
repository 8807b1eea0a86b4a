//! `perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`
//! runs one workload and prints its result as the last stdout line;
//! `perfbench --manifest` prints the `BENCHMARK.json` this registry defines.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{metrics, run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        println!("{}", metrics::manifest().render());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <yolo|rebranch> --seed <n> [--seconds <s>] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    if let Some(trace) = &outcome.trace {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace.render_compact()))
            .expect("write the trace file");
        eprintln!("perfbench: wrote {}", path.display());
    }
    println!("{}", outcome.facts.render_compact());
    println!("{}", outcome.result_json(args.trace).render_compact());
    ExitCode::SUCCESS
}
