//! ASCII table rendering.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (text).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple ASCII table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            title: None,
            headers: headers.iter().map(ToString::to_string).collect(),
            aligns: headers.iter().map(|_| Align::Left).collect(),
            rows: vec![],
        }
    }

    /// Set a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Set per-column alignment (panics on length mismatch).
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity");
        self.aligns = aligns.to_vec();
        self
    }

    /// Append a row (padded or truncated to the column count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// True when the table has no data rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |cells: &[String], aligns: &[Align]| -> String {
            let mut s = String::from("|");
            for ((cell, w), a) in cells.iter().zip(&widths).zip(aligns) {
                let pad = w.saturating_sub(cell.chars().count());
                match a {
                    Align::Left => {
                        s.push(' ');
                        s.push_str(cell);
                        s.push_str(&" ".repeat(pad + 1));
                    }
                    Align::Right => {
                        s.push_str(&" ".repeat(pad + 1));
                        s.push_str(cell);
                        s.push(' ');
                    }
                }
                s.push('|');
            }
            s
        };
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.headers, &vec![Align::Left; ncols]));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &self.aligns));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Format a float with `prec` significant-looking decimals, trimming
/// trailing noise for table readability.
pub fn fmt_f64(x: f64, prec: usize) -> String {
    if x == 0.0 {
        return "0".into();
    }
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if (0.01..1e7).contains(&a) {
        format!("{x:.prec$}")
    } else {
        format!("{x:.prec$e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// Number of data rows (`pub(crate)`: other modules' tests count
        /// rows too).
        pub(crate) fn len(&self) -> usize {
            self.rows.len()
        }

        /// Append a row of string slices.
        fn row_strs(&mut self, cells: &[&str]) -> &mut Self {
            let owned: Vec<String> = cells.iter().map(ToString::to_string).collect();
            self.row(&owned)
        }
    }

    #[test]
    fn renders_with_alignment() {
        let mut t = Table::new(&["name", "value"])
            .with_title("Demo")
            .with_aligns(&[Align::Left, Align::Right]);
        t.row_strs(&["alpha", "1.5"]);
        t.row_strs(&["beta-longer", "23"]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        assert!(s.contains("| alpha       |"));
        assert!(s.contains("|   1.5 |"));
        assert!(s.contains("|    23 |"));
        // Frame integrity: all lines equal width.
        let widths: Vec<usize> = s.lines().skip(1).map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn rows_are_padded_and_counted() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row_strs(&["only-one"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0, 3), "0");
        assert_eq!(fmt_f64(1.23456, 3), "1.235");
        assert_eq!(fmt_f64(123456.0, 1), "123456.0");
        assert!(fmt_f64(1.2e-9, 2).contains('e'));
        assert!(fmt_f64(f64::INFINITY, 2).contains("inf"));
    }
}
