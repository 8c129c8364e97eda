//! # flit-report
//!
//! Rendering substrate used by the table/figure regeneration binaries:
//! ASCII tables ([`table`]), text bar charts and sorted-series plots
//! ([`plot`]), order statistics for boxplots plus the inferential
//! layer for performance verdicts ([`stats`]), statistical speedup
//! reports ([`speedup`]), and the `flit trace` report
//! ([`trace_view`]). Everything renders to `String` so outputs can be
//! asserted in tests and diffed across runs.

pub mod plot;
pub mod speedup;
pub mod stats;
pub mod table;
pub mod trace_view;

pub use plot::{bar_chart, series_plot, BarRow};
pub use speedup::SpeedupReport;
pub use stats::{
    t_confidence_interval, welch_test, ConfidenceInterval, MeanVar, Summary, Verdict, WelchOutcome,
};
pub use table::Table;
pub use trace_view::render_trace;
