//! `pemodel` — the primitive-equation forecast singleton (the expensive
//! executable of paper Tables 1-2).
//!
//! Reads a member's initial-condition file, integrates the stochastic
//! ocean model with the member's seed, and writes the forecast file. The
//! central forecast is the engine's own, computed in `esse_master`.
//!
//! ```text
//! pemodel --workdir DIR --domain monterey:NX,NY,NZ --hours H --member J --seed S
//! ```

use esse::cli::{self, files};
use esse::fileio;

const USAGE: &str =
    "pemodel --workdir DIR --domain monterey:NX,NY,NZ --hours H --member J --seed S";

fn main() {
    let args = cli::args(USAGE);
    let workdir: std::path::PathBuf = cli::require(&args, "workdir", USAGE);
    let domain: String = cli::require(&args, "domain", USAGE);
    let hours: f64 = cli::get(&args, "hours").unwrap_or(6.0);

    let (model, _st0) = match cli::build_model(&domain) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("pemodel: {e}");
            std::process::exit(2);
        }
    };

    let member: u64 = cli::require(&args, "member", USAGE);
    let seed: u64 = cli::require(&args, "seed", USAGE);
    let (ic_path, out_path) = (workdir.join(files::ic(member)), workdir.join(files::fc(member)));

    let x0 = match fileio::read_vector(&ic_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pemodel: cannot read IC {}: {e}", ic_path.display());
            std::process::exit(1);
        }
    };
    if x0.len() != model.state_dim() {
        eprintln!(
            "pemodel: IC length {} does not match domain state dimension {}",
            x0.len(),
            model.state_dim()
        );
        std::process::exit(1);
    }
    match model.forecast(&x0, 0.0, hours * 3600.0, Some(seed)) {
        Ok(xf) => {
            if let Err(e) = fileio::write_vector(&out_path, &xf) {
                eprintln!("pemodel: cannot write forecast: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            // Exit code 3 = model failure; the master tolerates it (§4).
            eprintln!("pemodel: forecast failed: {e}");
            std::process::exit(3);
        }
    }
}
