//! The one report shape of the virtual-clock experiments, and plain-text
//! tables.
//!
//! A [`Sheet`] is one table of an experiment: label columns, then numeric
//! columns, one row per point measured. A [`Report`] is an experiment's
//! sheets and its checks: each check is named, reads cells of the sheets,
//! and returns a [`Verdict`]. The driver prints each sheet as a [`Table`],
//! writes the report as one JSON document (the experiment, its checks with
//! their verdicts, its sheets) and gates on the checks.

use crate::json::Json;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the number of cells should match the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Convenience for rows built from display values.
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.add_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns true if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, header) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(header.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}  "));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One table of an experiment: label columns, then numeric columns.
#[derive(Debug, Clone)]
pub struct Sheet {
    /// The report key, e.g. `fig3` or `cells`.
    pub name: &'static str,
    title: &'static str,
    labels: &'static [&'static str],
    values: Vec<&'static str>,
    rows: Vec<(Vec<String>, Vec<f64>)>,
}

impl Sheet {
    pub(crate) fn new(
        name: &'static str,
        title: &'static str,
        labels: &'static [&'static str],
        values: &[&'static str],
    ) -> Self {
        Sheet {
            name,
            title,
            labels,
            values: values.to_vec(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, labels: Vec<String>, values: Vec<f64>) {
        self.rows.push((labels, values));
    }

    /// Where the row labelled `labels` and the column `column` are.
    fn at<S: AsRef<str>>(&self, labels: &[S], column: &str) -> Option<(usize, usize)> {
        let wanted = || labels.iter().map(AsRef::as_ref);
        let row = self
            .keys()
            .position(|l| l.iter().map(String::as_str).eq(wanted()))?;
        Some((row, self.values.iter().position(|c| *c == column)?))
    }

    /// The `column` value of the row labelled `labels`; NaN, which fails
    /// every comparison, where there is none.
    pub fn value<S: AsRef<str>>(&self, labels: &[S], column: &str) -> f64 {
        let at = self.at(labels, column);
        at.map_or(f64::NAN, |(row, column)| self.rows[row].1[column])
    }

    /// The `column` values summed over every row.
    pub fn sum(&self, column: &str) -> f64 {
        self.keys().map(|labels| self.value(labels, column)).sum()
    }

    /// `Ok` if every row's `column` value `holds`; else the first row that
    /// does not, as `label/…: column value`.
    pub(crate) fn each(&self, column: &str, holds: impl Fn(f64) -> bool) -> Verdict {
        self.keys().try_for_each(|row| {
            let value = self.value(row, column);
            ensure(holds(value), || {
                format!("{}: {column} {value}", row.join("/"))
            })
        })
    }

    /// The rows' labels, in order.
    pub fn keys(&self) -> impl Iterator<Item = &[String]> {
        self.rows.iter().map(|(labels, _)| labels.as_slice())
    }

    /// Plants `value` in one cell, for tests that break a check.
    #[cfg(test)]
    pub(crate) fn set(&mut self, labels: &[&str], column: &str, value: f64) {
        let (row, column) = self.at(labels, column).expect("a planted cell exists");
        self.rows[row].1[column] = value;
    }

    /// Keeps only the rows whose labels `keep` accepts.
    #[cfg(test)]
    pub(crate) fn retain(&mut self, keep: impl Fn(&[String]) -> bool) {
        self.rows.retain(|(labels, _)| keep(labels));
    }

    /// The sheet as an aligned text table.
    pub fn table(&self) -> Table {
        let headers: Vec<&str> = self.labels.iter().chain(&self.values).copied().collect();
        let mut table = Table::new(self.title, &headers);
        for (labels, values) in &self.rows {
            let cells = values.iter().zip(&self.values).map(|(&v, column)| match v {
                v if v.is_nan() => "-".to_owned(),
                v if column.ends_with("_ms") => ms(v),
                v if v.fract() == 0.0 => format!("{v:.0}"),
                v => format!("{v:.2}"),
            });
            table.add_row(labels.iter().cloned().chain(cells).collect());
        }
        table
    }

    pub(crate) fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|(labels, values)| {
            let labels = self.labels.iter().zip(labels);
            let labels = labels.map(|(k, v)| (*k, Json::str(v)));
            let values = self.values.iter().zip(values);
            let values = values.map(|(k, v)| (*k, Json::Num(round4(*v))));
            Json::obj(labels.chain(values).collect())
        });
        Json::obj(vec![
            ("title", Json::str(self.title)),
            ("rows", Json::Arr(rows.collect())),
        ])
    }
}

/// One check's verdict: `Err` names its first failing clause.
pub type Verdict = Result<(), String>;

/// What an experiment measured, and how it is checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// The experiment's name in the registry, e.g. `figures`.
    pub experiment: &'static str,
    /// The sheets, each named once.
    pub sheets: Vec<Sheet>,
    /// The checks the gate runs over the sheets: each check's name and
    /// verdict, in order.
    pub checks: fn(&Report) -> Vec<(&'static str, Verdict)>,
}

impl Report {
    /// The sheet named `name`. Panics if there is none: every check reads
    /// sheets its experiment always writes.
    pub fn sheet(&self, name: &str) -> &Sheet {
        let sheet = self.sheets.iter().find(|s| s.name == name);
        sheet.unwrap_or_else(|| panic!("no sheet {name}"))
    }

    /// Mutable access for tests that plant a value.
    #[cfg(test)]
    pub(crate) fn sheet_mut(&mut self, name: &str) -> &mut Sheet {
        self.sheets.iter_mut().find(|s| s.name == name).unwrap()
    }

    /// Every check's verdict, in order.
    pub fn verdicts(&self) -> Vec<(&'static str, Verdict)> {
        (self.checks)(self)
    }

    /// The gate: every check passes. A failure names each failing check and
    /// its first failing clause.
    pub fn gate(&self) -> Verdict {
        let verdicts = self.verdicts().into_iter();
        let failed: Vec<String> = verdicts
            .filter_map(|(check, v)| v.err().map(|e| format!("{check}: {e}")))
            .collect();
        ensure(failed.is_empty(), || failed.join("; "))
    }

    /// The report's document: the experiment, each check's verdict, then
    /// each sheet.
    pub fn to_json(&self) -> Json {
        let checks = self.verdicts().into_iter().map(|(check, verdict)| {
            let verdict = verdict.map_or_else(|e| format!("failed: {e}"), |()| "ok".to_owned());
            Json::obj(vec![
                ("check", Json::str(check)),
                ("verdict", Json::str(verdict)),
            ])
        });
        let sheets = self.sheets.iter().map(|s| (s.name.to_owned(), s.to_json()));
        Json::obj(vec![
            ("experiment", Json::str(self.experiment)),
            ("checks", Json::Arr(checks.collect())),
            ("sheets", Json::Obj(sheets.collect())),
        ])
    }
}

/// A test's way to break one check: it plants values in a sheet.
#[cfg(test)]
pub(crate) type Plant<'a> = &'a dyn Fn(&mut Sheet);

/// Asserts that each plant, made in sheet `sheet` of a copy of `report`,
/// fails its check and no other.
#[cfg(test)]
pub(crate) fn assert_plants(report: &Report, sheet: &str, cases: &[(&str, Plant<'_>)]) {
    for (check, plant) in cases {
        let mut planted = report.clone();
        plant(planted.sheet_mut(sheet));
        let failed = planted.verdicts().into_iter().filter(|(_, v)| v.is_err());
        assert_eq!(failed.map(|(c, _)| c).collect::<Vec<_>>(), [*check]);
    }
}

/// Asserts that `report`'s document parses back to its experiment, each
/// check's name and verdict, and every cell of every sheet.
#[cfg(test)]
pub(crate) fn assert_round_trips(report: &Report) {
    let doc = Json::parse(&report.to_json().render()).unwrap();
    let text = |json: &Json, key| json.get(key).and_then(Json::as_str).map(str::to_owned);
    assert_eq!(text(&doc, "experiment").unwrap(), report.experiment);
    let checks = doc.get("checks").and_then(Json::as_array).unwrap();
    let checks = checks
        .iter()
        .map(|c| (text(c, "check"), text(c, "verdict")));
    let verdicts = report.verdicts().into_iter().map(|(check, v)| {
        let verdict = v.map_or_else(|e| format!("failed: {e}"), |()| "ok".to_owned());
        (Some(check.to_owned()), Some(verdict))
    });
    assert!(checks.eq(verdicts));
    for sheet in &report.sheets {
        let rows = doc
            .get("sheets")
            .and_then(|s| s.get(sheet.name)?.get("rows"));
        let rows = rows.and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), sheet.keys().count(), "{}", sheet.name);
        for (row, labels) in rows.iter().zip(sheet.keys()) {
            for (key, label) in sheet.labels.iter().zip(labels) {
                assert_eq!(text(row, key).as_ref(), Some(label));
            }
            for column in &sheet.values {
                let value = round4(sheet.value(labels, column));
                let want = if value.is_nan() {
                    Json::Null
                } else {
                    Json::Num(value)
                };
                assert_eq!(row.get(column), Some(&want), "{labels:?} {column}");
            }
        }
    }
}

/// `Ok` if `holds`, else `Err` with the message `why` builds.
pub(crate) fn ensure(holds: bool, why: impl FnOnce() -> String) -> Verdict {
    holds.then_some(()).ok_or_else(why)
}

/// `Ok` if `a`'s value `x` is below `b`'s value `y`.
pub(crate) fn below(a: &str, x: f64, b: &str, y: f64) -> Verdict {
    ensure(x < y, || format!("{a} {x:.2} is not below {b} {y:.2}"))
}

/// Formats a millisecond value the way the paper's figures label them.
pub fn ms(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.2}")
    }
}

/// Rounds to two decimals, the precision the JSON reports carry.
pub(crate) fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Rounds to four decimals (ratios and shares in the JSON reports).
pub(crate) fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

/// The element of an already-sorted sample at index `round((n - 1) · q)`.
/// This is not nearest rank: the "p50" of two samples is the larger one,
/// and `q = 0.99` is the maximum below 51 samples.
pub(crate) fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = Table::new("Demo", &["config", "median (ms)", "p99 (ms)"]);
        table.add_row(vec!["AFT".into(), "3.1".into(), "9.9".into()]);
        table.add_row(vec!["DynamoDB Sequential".into(), "30".into(), "96".into()]);
        let rendered = table.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("DynamoDB Sequential"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        // Every data line is at least as wide as the longest cell in column 0.
        for line in rendered.lines().skip(2) {
            assert!(line.len() >= "DynamoDB Sequential".len());
        }
    }

    #[test]
    fn ms_formatting_scales_precision() {
        assert_eq!(ms(3.72111), "3.72");
        assert_eq!(ms(37.2111), "37.2");
        assert_eq!(ms(372.111), "372");
    }

    #[test]
    fn row_builder_accepts_display_values() {
        let mut table = Table::new("t", &["a", "b"]);
        table.row(&[&1.5f64, &"x"]);
        assert_eq!(table.len(), 1);
        assert!(table.render().contains("1.5"));
    }
}
