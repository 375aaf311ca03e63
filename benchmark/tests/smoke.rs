//! Smoke test: every workload named in `BENCHMARK.json` runs at a small
//! scale, passes all its checks (the traced run included, so decorated
//! and plain outcomes agree), and prints each declared metric exactly
//! once with its declared unit.

use std::path::Path;
use std::process::Command;

/// A parsed JSON value; objects keep duplicate keys so they can be
/// detected.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

/// A minimal recursive-descent JSON parser (no dependency available).
struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = p.value();
        p.skip_ws();
        assert_eq!(p.at, p.text.len(), "trailing characters in {text}");
        value
    }

    fn skip_ws(&mut self) {
        while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.text.get(self.at),
            Some(&byte),
            "expected {:?} at {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.text.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => self.literal(),
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.text[self.at];
            self.at += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.text[self.at];
                    self.at += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }

    fn literal(&mut self) -> Json {
        let start = self.at;
        while self.at < self.text.len() && !b",}] \n\t\r".contains(&self.text[self.at]) {
            self.at += 1;
        }
        let token = std::str::from_utf8(&self.text[start..self.at]).expect("ascii literal");
        match token {
            "null" => Json::Null,
            "true" => Json::Bool(true),
            "false" => Json::Bool(false),
            _ => Json::Num(
                token
                    .parse()
                    .unwrap_or_else(|_| panic!("bad literal {token}")),
            ),
        }
    }
}

fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_colab-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--scale", "0.05"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Parser::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_prints_every_declared_metric_once_and_passes_its_checks() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Parser::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"));
    for workload in spec.get("workloads").arr() {
        let name = workload.get("name").str();
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} trace {trace}"
            );
            assert_eq!(result.get("failed").num(), 0.0, "{name} trace {trace}");
            assert!(result.get("attempted").num() >= 1.0);
            let Json::Obj(printed) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(n, m)| {
                    assert!(m.get("value").num().is_finite());
                    (n.clone(), m.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(printed, declared(&spec, key), "{name} trace {trace}");
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_colab-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
}
