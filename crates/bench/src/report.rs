//! Plain-text reporting helpers for the figures binary.

/// Prints a column-aligned table.
///
/// `headers` names the columns and each row must have the same arity.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ms_three_decimals() {
        assert_eq!(fmt_ms(1.23456), "1.235");
        assert_eq!(fmt_ms(0.0), "0.000");
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            "test",
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into()]],
        );
    }
}
