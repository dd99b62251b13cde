//! Output checks: every reduced model against the full model on a fixed
//! in-band grid.

use lti::{frequency_response, max_rel_error, Descriptor, StateSpace};

/// Upper edge of the reduction band (rad/s); every workload reduces
/// over `[0, OMEGA_MAX]`.
pub const OMEGA_MAX: f64 = 10.0;

/// Largest in-band relative transfer-function error a model may have
/// and still count as correct.
pub const MAX_ERR: f64 = 1e-3;

/// In-band check frequencies: the grid `pmtbr-cli reduce --check 8`
/// uses, `linspace(OMEGA_MAX / 8, OMEGA_MAX, 8)`. No point of it is a
/// sampling node of any plan the benchmark runs.
const GRID: [f64; 8] = [1.25, 2.5, 3.75, 5.0, 6.25, 7.5, 8.75, 10.0];

/// Worst relative error of `reduced` against `full` over the grid.
pub fn in_band_error(full: &Descriptor, reduced: &StateSpace) -> Result<f64, String> {
    let reference = frequency_response(full, &GRID).map_err(|e| e.to_string())?;
    let model = frequency_response(reduced, &GRID).map_err(|e| e.to_string())?;
    let err = max_rel_error(&reference, &model);
    if err.is_finite() {
        Ok(err)
    } else {
        Err("in-band error is not finite".into())
    }
}

pub fn build(text: &str) -> Result<Descriptor, String> {
    circuits::parse_netlist(text)
        .map_err(|e| e.to_string())
        .and_then(|nl| nl.build().map_err(|e| e.to_string()))
}
