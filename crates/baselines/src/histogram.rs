//! Histogram-based splitter selection — re-exported from
//! [`sdssort::histogram`], where the implementation lives so SDS-Sort can
//! also use it as an alternative pivot source
//! ([`sdssort::config::PivotSource::Histogram`]). HykSort consumes it from
//! here.

pub use sdssort::histogram::histogram_splitters;
