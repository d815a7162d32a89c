//! `anyscan` — the command-line face of the workspace.
//!
//! ```text
//! anyscan stats    --input g.txt
//! anyscan generate --kind lfr --n 10000 --avg-degree 20 --out g.bin
//! anyscan cluster  --input g.bin --algo anyscan --eps 0.5 --mu 5
//! anyscan explore  --input g.bin --eps 0.2,0.4,0.6,0.8 --mu 5
//! anyscan interactive --dataset GR02 --eps 0.5 --mu 5 --checkpoint-ms 50
//! anyscan index build --input g.bin --out g.asix --threads 8
//! anyscan index query --input g.bin --index g.asix --eps 0.3,0.5 --mu 5
//! anyscan serve    --input g.bin --index g.asix --listen 127.0.0.1:7411
//! anyscan mutate   --input g.bin --updates 500 --trace-out g.asul --out g2.bin
//! anyscan replay   --input g.bin --trace g.asul --eps 0.5 --mu 5
//! ```

mod args;
mod commands;
mod out;
mod sigint;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        args::print_usage();
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    // `index` takes a subaction (`build` | `query`) before the flags; peel it
    // off so Options::parse only ever sees `--key value` tokens.
    let sub = if cmd == "index" && argv.first().is_some_and(|t| !t.starts_with("--")) {
        Some(argv.remove(0))
    } else {
        None
    };
    // Every flag must be one the command reads: a typo or a retired flag is
    // a usage error before any work runs, not a silently ignored option.
    let command = match &sub {
        Some(sub) => format!("{cmd} {sub}"),
        None => cmd.clone(),
    };
    let opts = match args::Options::parse(&argv).and_then(|o| o.check_flags(&command).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            args::print_usage();
            std::process::exit(2);
        }
    };
    let result = match cmd.as_str() {
        "stats" => commands::stats(&opts),
        "generate" => commands::generate(&opts),
        "cluster" => commands::cluster(&opts),
        "explore" => commands::explore(&opts),
        "hierarchy" => commands::hierarchy(&opts),
        "interactive" => commands::interactive(&opts),
        "resume" => commands::resume(&opts),
        "serve" => commands::serve(&opts),
        "probe" => commands::probe(&opts),
        "promote" => commands::promote(&opts),
        "mutate" => commands::mutate(&opts),
        "replay" => commands::replay(&opts),
        "index" => match sub.as_deref() {
            Some("build") => commands::index_build(&opts),
            Some("query") => commands::index_query(&opts),
            Some(other) => Err(format!("unknown index subcommand {other:?} (build|query)")),
            None => Err("index needs a subcommand: build | query".into()),
        },
        "help" | "--help" | "-h" => {
            args::print_usage();
            return;
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
