//! Dependency-free JSON round-trip for [`FaultSchedule`] — the same
//! hand-rolled style the bench bins use for `BENCH_*.json`. Writing
//! formats `f64` with `{:?}` (shortest exact round-trip), `u64` in
//! full, so `from_json(to_json(s)) == s` bit-for-bit; parsing is a
//! small recursive-descent pass with no external crates.

use crate::{FaultError, FaultEvent, FaultKind, FaultSchedule};
use std::fmt::Write as _;

/// Schema tag stamped on every serialized schedule.
pub const SCHEMA: &str = "openserdes-fault-schedule/1";

impl FaultSchedule {
    /// Serializes the schedule as a self-describing JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"seed\": {},\n  \"events\": [",
            self.seed()
        );
        for (k, e) in self.events().iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}", event_json(e));
        }
        if self.events().is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parses a schedule previously written by [`FaultSchedule::to_json`]
    /// (or hand-authored to the same schema).
    ///
    /// # Errors
    ///
    /// [`FaultError::Parse`] on malformed JSON, a wrong/missing schema
    /// tag, unknown fault kinds, or missing fields.
    pub fn from_json(text: &str) -> Result<Self, FaultError> {
        let value = Parser::new(text).parse_document()?;
        let obj = value.as_obj("document")?;
        let schema = get(obj, "schema")?.as_str("schema")?;
        if schema != SCHEMA {
            return Err(FaultError::Parse(format!(
                "unsupported schema `{schema}` (want `{SCHEMA}`)"
            )));
        }
        let seed = get(obj, "seed")?.as_u64("seed")?;
        let mut schedule = FaultSchedule::new(seed);
        for (i, ev) in get(obj, "events")?.as_arr("events")?.iter().enumerate() {
            schedule.push(parse_event(ev).map_err(|e| match e {
                FaultError::Parse(msg) => FaultError::Parse(format!("events[{i}]: {msg}")),
                other => other,
            })?);
        }
        Ok(schedule)
    }
}

fn event_json(e: &FaultEvent) -> String {
    let head = format!("{{ \"at_ui\": {}, \"kind\": \"{}\"", e.at_ui, e.kind.tag());
    let body = match &e.kind {
        FaultKind::BurstNoise {
            duration_ui,
            flip_prob,
        } => format!(", \"duration_ui\": {duration_ui}, \"flip_prob\": {flip_prob:?}"),
        FaultKind::Dropout { duration_ui, level } => {
            format!(", \"duration_ui\": {duration_ui}, \"level\": {level}")
        }
        FaultKind::SupplyDroop {
            duration_ui,
            peak_flip_prob,
        } => format!(", \"duration_ui\": {duration_ui}, \"peak_flip_prob\": {peak_flip_prob:?}"),
        FaultKind::PhaseGlitch { offset_samples } => {
            format!(", \"offset_samples\": {offset_samples}")
        }
        FaultKind::ClockDrift {
            duration_ui,
            slip_period_ui,
            late,
        } => format!(
            ", \"duration_ui\": {duration_ui}, \"slip_period_ui\": {slip_period_ui}, \"late\": {late}"
        ),
        FaultKind::SeuCdrPhase { bit } => format!(", \"bit\": {bit}"),
        FaultKind::SeuDeserializer { lane, bit } => {
            format!(", \"lane\": {lane}, \"bit\": {bit}")
        }
        FaultKind::StuckAtNet { net, value } => {
            format!(", \"net\": {}, \"value\": {value}", quote(net))
        }
    };
    format!("{head}{body} }}")
}

/// JSON string literal with the escapes the grammar requires.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn parse_event(v: &Json) -> Result<FaultEvent, FaultError> {
    let obj = v.as_obj("event")?;
    let at_ui = get(obj, "at_ui")?.as_u64("at_ui")?;
    let tag = get(obj, "kind")?.as_str("kind")?;
    let kind = match tag {
        "burst_noise" => FaultKind::BurstNoise {
            duration_ui: get(obj, "duration_ui")?.as_u64("duration_ui")?,
            flip_prob: get(obj, "flip_prob")?.as_f64("flip_prob")?,
        },
        "dropout" => FaultKind::Dropout {
            duration_ui: get(obj, "duration_ui")?.as_u64("duration_ui")?,
            level: get(obj, "level")?.as_bool("level")?,
        },
        "supply_droop" => FaultKind::SupplyDroop {
            duration_ui: get(obj, "duration_ui")?.as_u64("duration_ui")?,
            peak_flip_prob: get(obj, "peak_flip_prob")?.as_f64("peak_flip_prob")?,
        },
        "phase_glitch" => FaultKind::PhaseGlitch {
            offset_samples: get(obj, "offset_samples")?.as_i32("offset_samples")?,
        },
        "clock_drift" => FaultKind::ClockDrift {
            duration_ui: get(obj, "duration_ui")?.as_u64("duration_ui")?,
            slip_period_ui: get(obj, "slip_period_ui")?.as_u64("slip_period_ui")?,
            late: get(obj, "late")?.as_bool("late")?,
        },
        "seu_cdr_phase" => FaultKind::SeuCdrPhase {
            bit: get(obj, "bit")?.as_u32("bit")?,
        },
        "seu_deserializer" => FaultKind::SeuDeserializer {
            lane: get(obj, "lane")?.as_u32("lane")?,
            bit: get(obj, "bit")?.as_u32("bit")?,
        },
        "stuck_at_net" => FaultKind::StuckAtNet {
            net: get(obj, "net")?.as_str("net")?.to_string(),
            value: get(obj, "value")?.as_bool("value")?,
        },
        other => return Err(FaultError::Parse(format!("unknown fault kind `{other}`"))),
    };
    Ok(FaultEvent { at_ui, kind })
}

// ---- minimal JSON value + recursive-descent parser ------------------

/// Parsed JSON value. Numbers keep their raw text so u64 seeds survive
/// exactly (a round-trip through f64 would truncate above 2^53).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], FaultError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(FaultError::Parse(format!("{what}: expected object"))),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], FaultError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(FaultError::Parse(format!("{what}: expected array"))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, FaultError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(FaultError::Parse(format!("{what}: expected string"))),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, FaultError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(FaultError::Parse(format!("{what}: expected bool"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, FaultError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| FaultError::Parse(format!("{what}: `{raw}` is not a u64"))),
            _ => Err(FaultError::Parse(format!("{what}: expected number"))),
        }
    }

    fn as_u32(&self, what: &str) -> Result<u32, FaultError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| FaultError::Parse(format!("{what}: `{raw}` is not a u32"))),
            _ => Err(FaultError::Parse(format!("{what}: expected number"))),
        }
    }

    fn as_i32(&self, what: &str) -> Result<i32, FaultError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| FaultError::Parse(format!("{what}: `{raw}` is not an i32"))),
            _ => Err(FaultError::Parse(format!("{what}: expected number"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, FaultError> {
        match self {
            Json::Num(raw) => raw
                .parse()
                .map_err(|_| FaultError::Parse(format!("{what}: `{raw}` is not a number"))),
            _ => Err(FaultError::Parse(format!("{what}: expected number"))),
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, FaultError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| FaultError::Parse(format!("missing field `{key}`")))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, FaultError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> FaultError {
        FaultError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), FaultError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json, FaultError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_obj(),
            Some(b'[') => self.parse_arr(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_obj(&mut self) -> Result<Json, FaultError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, FaultError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, FaultError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim — input came from a &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, FaultError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if raw.parse::<f64>().is_err() {
            return Err(self.err(&format!("`{raw}` is not a number")));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{campaign, CampaignKind};

    fn sample_schedule() -> FaultSchedule {
        FaultSchedule::new(u64::MAX - 3)
            .with_event(FaultEvent {
                at_ui: 100,
                kind: FaultKind::BurstNoise {
                    duration_ui: 16,
                    flip_prob: 0.123_456_789_012_345_6,
                },
            })
            .with_event(FaultEvent {
                at_ui: 200,
                kind: FaultKind::Dropout {
                    duration_ui: 4,
                    level: true,
                },
            })
            .with_event(FaultEvent {
                at_ui: 300,
                kind: FaultKind::SupplyDroop {
                    duration_ui: 32,
                    peak_flip_prob: 0.5,
                },
            })
            .with_event(FaultEvent {
                at_ui: 400,
                kind: FaultKind::PhaseGlitch { offset_samples: -2 },
            })
            .with_event(FaultEvent {
                at_ui: 500,
                kind: FaultKind::ClockDrift {
                    duration_ui: 64,
                    slip_period_ui: 8,
                    late: false,
                },
            })
            .with_event(FaultEvent {
                at_ui: 600,
                kind: FaultKind::SeuCdrPhase { bit: 2 },
            })
            .with_event(FaultEvent {
                at_ui: 700,
                kind: FaultKind::SeuDeserializer { lane: 7, bit: 31 },
            })
            .with_event(FaultEvent {
                at_ui: 800,
                kind: FaultKind::StuckAtNet {
                    net: "weird \"net\"\\π\n".into(),
                    value: true,
                },
            })
    }

    #[test]
    fn round_trip_every_kind() {
        let s = sample_schedule();
        let json = s.to_json();
        let back = FaultSchedule::from_json(&json).expect("parse");
        assert_eq!(back, s);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn round_trip_empty_and_campaigns() {
        let empty = FaultSchedule::new(0);
        assert_eq!(
            FaultSchedule::from_json(&empty.to_json()).expect("parse"),
            empty
        );
        for kind in CampaignKind::ALL {
            let c = campaign(kind, 77, 10_000);
            assert_eq!(FaultSchedule::from_json(&c.to_json()).expect("parse"), c);
        }
    }

    #[test]
    fn u64_seed_survives_exactly() {
        let s = FaultSchedule::new(u64::MAX);
        let back = FaultSchedule::from_json(&s.to_json()).expect("parse");
        assert_eq!(back.seed(), u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"schema\": \"nope/9\", \"seed\": 0, \"events\": []}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"events\": []}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"seed\": 0, \"events\": [{\"at_ui\": 1, \"kind\": \"warp_core_breach\"}]}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"seed\": 0, \"events\": []} trailing",
        ] {
            assert!(
                FaultSchedule::from_json(bad).is_err(),
                "must reject: {bad:?}"
            );
        }
    }

    #[test]
    fn parse_accepts_hand_authored_whitespace() {
        let text = "\n{ \"schema\":\"openserdes-fault-schedule/1\" ,\n\t\"seed\" : 9,\n  \"events\":[ {\"at_ui\":5,\"kind\":\"seu_cdr_phase\",\"bit\":1} ] }";
        let s = FaultSchedule::from_json(text).expect("parse");
        assert_eq!(s.seed(), 9);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn out_of_range_u32_fields_are_rejected_not_truncated() {
        // 2^32 + 2 would wrap to 2 under an `as u32` cast.
        let doc = |event: &str| {
            format!(
                "{{\"schema\":\"openserdes-fault-schedule/1\",\"seed\":0,\"events\":[{{\"at_ui\":5,{event}}}]}}"
            )
        };
        for (event, field) in [
            ("\"kind\":\"seu_cdr_phase\",\"bit\":4294967298", "bit"),
            (
                "\"kind\":\"seu_deserializer\",\"lane\":4294967298,\"bit\":1",
                "lane",
            ),
            (
                "\"kind\":\"seu_deserializer\",\"lane\":1,\"bit\":4294967298",
                "bit",
            ),
        ] {
            match FaultSchedule::from_json(&doc(event)) {
                Err(FaultError::Parse(msg)) => {
                    assert!(
                        msg.contains(&format!("{field}: `4294967298` is not a u32")),
                        "names `{field}`: {msg}"
                    )
                }
                other => panic!("expected a parse error for {event}, got {other:?}"),
            }
        }
        let max = FaultSchedule::from_json(&doc("\"kind\":\"seu_cdr_phase\",\"bit\":4294967295"))
            .expect("u32::MAX is in range");
        assert_eq!(max.len(), 1);
    }
}
