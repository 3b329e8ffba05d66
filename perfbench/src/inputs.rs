//! Input generation, run before any timing (and, from the command line, in
//! its own process, so the generator's memory never shows in the measured
//! process's high-water mark).

use pcover_datagen::profiles::{DatasetProfile, Scale};
use pcover_datagen::sessions::generate_clickstream;

use crate::config::Options;

/// Seed offsets keep the sessions and the plans of one run independent
/// streams of the same `--seed`.
pub const SESSION_STREAM: u64 = 0x7365_7373_0000_0000;
/// See [`SESSION_STREAM`].
pub const PLAN_STREAM: u64 = 0x706c_616e_0000_0000;

/// Writes the sessions JSONL file of `opts` and returns a one-line
/// description.
///
/// # Errors
///
/// Generator or IO failures, as text.
pub fn prepare(opts: &Options) -> Result<String, String> {
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("create {}: {e}", opts.dir.display()))?;
    let path = opts.input_path();
    let size = opts.serve();
    let (catalog, sessions) =
        DatasetProfile::PE.configs(Scale::Fraction(size.scale), opts.seed ^ SESSION_STREAM);
    let (_, cs) = generate_clickstream(&catalog, &sessions);
    pcover_clickstream::io::write_jsonl(&cs, &path).map_err(|e| e.to_string())?;
    Ok(format!(
        "sessions {}: {} sessions over {} catalog items",
        path.display(),
        cs.len(),
        catalog.items
    ))
}
