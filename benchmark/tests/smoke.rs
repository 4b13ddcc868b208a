//! Smoke runs of every workload on test-sized inputs: every metric that
//! `BENCHMARK.json` declares is emitted with its unit, deterministic
//! results repeat across runs and pool widths, and nothing fails.

use rnnasip_benchmark::{run, Config, Metric, Outcome, Scale, Workload};
use std::collections::BTreeMap;

/// Units of metrics that are deterministic by construction.
const EXACT_UNITS: [&str; 6] = ["count", "cycles", "ppm", "req", "B", "share"];

fn config(workload: Workload, trace: bool, workers: usize) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        workers,
        scale: Scale::Smoke,
    }
}

fn smoke(workload: Workload, trace: bool, workers: usize) -> Outcome {
    let out = run(&config(workload, trace, workers));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
    assert_eq!(out.failed, 0);
    assert_eq!(out.fail_ppm(), 0.0);
    assert!(out.attempted > 0);
    out
}

/// A JSON value, enough of JSON to read `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], b,
            "expected {} at byte {}",
            b as char, self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    m.insert(k, self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                while self.peek() != b']' {
                    v.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"null" => Json::Null,
                    b"true" | b"false" => Json::Bool,
                    num => {
                        let text = std::str::from_utf8(num).unwrap();
                        text.parse::<f64>()
                            .unwrap_or_else(|_| panic!("bad token {text}"));
                        Json::Num
                    }
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Parser {
        s: text.as_bytes(),
        i: 0,
    }
    .value()
}

fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn assert_emitted(workload: Workload, declared: &[(String, String)], emitted: &[Metric]) {
    for (name, unit) in declared {
        let m = emitted
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{}: {name} not emitted", workload.name()));
        assert_eq!(m.unit, unit, "{}: unit of {name}", workload.name());
        assert!(
            m.value.is_finite(),
            "{}: {name} = {}",
            workload.name(),
            m.value
        );
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for workload in Workload::ALL {
        let plain = smoke(workload, false, 2);
        assert_emitted(workload, &end_to_end, &plain.end_to_end);
        assert!(plain.per_layer.is_empty() && plain.spans.is_empty());
        let traced = smoke(workload, true, 2);
        assert_emitted(workload, &per_layer, &traced.per_layer);
        assert!(!traced.spans.is_empty());
    }
}

/// The deterministic results of a traced run: the exact metrics plus
/// every per-layer metric in an exact unit.
fn exact(out: &Outcome) -> Vec<Metric> {
    let counts = out
        .per_layer
        .iter()
        .filter(|m| EXACT_UNITS.contains(&m.unit));
    out.exact.iter().chain(counts).cloned().collect()
}

#[test]
fn exact_metrics_repeat_across_runs_and_pool_widths() {
    for workload in Workload::ALL {
        let first = exact(&smoke(workload, true, 2));
        assert!(!first.is_empty());
        assert_eq!(
            first,
            exact(&smoke(workload, true, 2)),
            "{}",
            workload.name()
        );
        assert_eq!(
            first,
            exact(&smoke(workload, true, 1)),
            "{}",
            workload.name()
        );
    }
}
