//! Small text-report helpers shared by the bench binaries.

use openserdes_analog::Waveform;

/// Renders an aligned text table: `headers` then `rows`.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a waveform as an ASCII oscillogram: `rows` vertical levels by
/// `cols` time bins (each bin shows the mean level).
pub fn sparkline(waveform: &Waveform, rows: usize, cols: usize) -> String {
    let (lo, hi) = (waveform.min(), waveform.max());
    let span = (hi - lo).max(1e-12);
    let n = waveform.len();
    let per_col = (n / cols.max(1)).max(1);
    let levels: Vec<usize> = (0..cols)
        .map(|c| {
            let start = c * per_col;
            let stop = ((c + 1) * per_col).min(n);
            if start >= stop {
                return 0;
            }
            let mean: f64 =
                waveform.samples()[start..stop].iter().sum::<f64>() / (stop - start) as f64;
            (((mean - lo) / span) * (rows - 1) as f64).round() as usize
        })
        .collect();
    let mut out = String::new();
    for r in (0..rows).rev() {
        let v = lo + span * r as f64 / (rows - 1) as f64;
        out.push_str(&format!("{v:>7.3} |"));
        for &l in &levels {
            out.push(if l == r { '*' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "        +{} ({:.2} ns span)\n",
        "-".repeat(levels.len()),
        (waveform.t_end() - waveform.t0()) * 1e9
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("long-name"));
        // All rows the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn sparkline_spans_levels() {
        let w = Waveform::from_fn(0.0, 1e-12, 200, |t| (t * 1e12 / 30.0).sin());
        let s = sparkline(&w, 8, 40);
        assert_eq!(s.lines().count(), 9);
        assert!(s.contains('*'));
    }
}
