//! The bodies behind [`crate::REGISTRY`], grouped by what they exercise.
//! Each is a `fn(&mut Run) -> bool`: print the rows, record the series,
//! return the shape verdict.

use crate::{fmt_time, Run, Table};
use mpisim::telemetry::Json;

pub mod kernels;
pub mod scaling;
pub mod skew;
pub mod thresholds;

/// A timed sweep (Figs. 5a–5c and 6a/6b, the network and pivot-selection
/// ablations): time every contender at every x, print `x | contenders…`
/// (plus the winner when there are two; a tie goes to the second), record
/// each row as one point of `series`, and return the rows.
fn contest(
    r: &mut Run,
    series: &str,
    x_name: &str,
    names: &[&str],
    xs: &[usize],
    label: impl Fn(usize) -> String,
    mut time: impl FnMut(&Run, usize) -> Vec<f64>,
) -> Vec<Vec<f64>> {
    let duel = names.len() == 2;
    let headers = [x_name].into_iter().chain(names.iter().copied());
    let mut table = Table::new(headers.chain(duel.then_some("winner")));
    let mut rows = Vec::new();
    for &x in xs {
        let times = time(r, x);
        let values: Vec<_> = names
            .iter()
            .zip(&times)
            .map(|(n, &t)| (*n, Json::from(t)))
            .collect();
        r.em().point(series, &[("x", x.into())], &values);
        let mut row = vec![label(x)];
        row.extend(times.iter().map(|&t| fmt_time(t)));
        if duel {
            row.push(names[usize::from(times[1] <= times[0])].to_string());
        }
        table.row(row);
        rows.push(times);
    }
    table.print();
    rows
}

/// The first x of a two-contender [`contest`] at which the second won.
fn crossover(xs: &[usize], rows: &[Vec<f64>]) -> Option<usize> {
    rows.iter().position(|t| t[1] < t[0]).map(|i| xs[i])
}
