//! Byte pins of the job API's wire objects: one sample of every
//! `Request` kind with its `JobKey`, one of every `Response` kind, and
//! a serve `Envelope` with and without `deadline_ms`. The samples carry
//! NaN, ±inf, −0.0, an empty list, `u64::MAX` and strings that need
//! escapes. The server cache is keyed on these bytes, so they must not
//! move; each literal must also decode and re-encode to itself.

mod wire_samples;

use openserdes::core::job::{DesignSpec, Request, Response};
use openserdes::core::JobKey;
use openserdes::serve::wire::{self, Envelope};
use wire_samples::{requests, responses, NASTY};

fn envelopes() -> Vec<Envelope> {
    let request = Request::Lint {
        design: DesignSpec::Cdr { oversampling: 5 },
    };
    vec![
        Envelope {
            tenant: NASTY.to_string(),
            priority: u8::MAX,
            seed: u64::MAX,
            deadline_ms: None,
            request: request.clone(),
        },
        Envelope {
            tenant: "acme".to_string(),
            priority: 0,
            seed: 0,
            deadline_ms: Some(u64::MAX),
            request,
        },
    ]
}

/// The canonical `LinkConfig::paper_default()` object.
macro_rules! paper_config {
    () => {
        concat!(
            r#"{"data_rate_hz":2000000000.0,"channel":{"attenuation_db":34.0,"#,
            r#""bandwidth_hz":6000000000.0,"noise_sigma_v":0.0003,"rj_sigma_s":1.5e-12,"#,
            r#""dj_pp_s":3e-12,"dj_freq_hz":123000000.0,"seed":12648430},"#,
            r#""pvt":{"corner":"tt","vdd_v":1.8,"temp_c":25.0},"#,
            r#""cdr":{"oversampling":5,"glitch_filter":true,"phase_hysteresis":2,"window":32}}"#
        )
    };
}

/// `requests()` in order: canonical bytes and `JobKey` digest.
const REQUEST_PINS: [(&str, &str); 9] = [
    (
        concat!(
            r#"{"kind":"run_link","config":{"data_rate_hz":"inf","channel":{"#,
            r#""attenuation_db":-0.0,"bandwidth_hz":"nan","noise_sigma_v":"-inf","#,
            r#""rj_sigma_s":1.25e-300,"dj_pp_s":0.0,"dj_freq_hz":1e22,"seed":18446744073709551615},"#,
            r#""pvt":{"corner":"sf","vdd_v":1.7,"temp_c":-40.0},"#,
            r#""cdr":{"oversampling":64,"glitch_filter":false,"phase_hysteresis":4294967295,"window":1}},"#,
            r#""frames":[]}"#
        ),
        "98af30c4fcca95c6461bf88d0a32f725",
    ),
    (
        concat!(
            r#"{"kind":"run_link_with_faults","config":"#,
            paper_config!(),
            r#","frames":[[0,1,2,3,4,5,6,4294967295],"#,
            r#"[1515890085,1515890085,1515890085,1515890085,1515890085,1515890085,1515890085,1515890085]],"#,
            r#""faults":{"seed":18446744073709551615,"events":["#,
            r#"{"at_ui":0,"kind":"dropout","duration_ui":0,"level":true},"#,
            r#"{"at_ui":1,"kind":"supply_droop","duration_ui":32,"peak_flip_prob":"-inf"},"#,
            r#"{"at_ui":2,"kind":"phase_glitch","offset_samples":-2147483648},"#,
            r#"{"at_ui":3,"kind":"clock_drift","duration_ui":64,"slip_period_ui":8,"late":true},"#,
            r#"{"at_ui":4,"kind":"seu_cdr_phase","bit":4294967295},"#,
            r#"{"at_ui":5,"kind":"seu_deserializer","lane":7,"bit":31},"#,
            r#"{"at_ui":6,"kind":"stuck_at_net","net":"q\"b\\s\nn\tt\r\u0001π","value":false},"#,
            r#"{"at_ui":18446744073709551615,"kind":"burst_noise","#,
            r#""duration_ui":18446744073709551615,"flip_prob":"nan"}]}}"#
        ),
        "5aca526b521c0e51b44399887d9a8278",
    ),
    (
        r#"{"kind":"run_flow","design":{"name":"serializer"},"pvt":{"corner":"fs","vdd_v":-0.0,"temp_c":"-inf"}}"#,
        "a323d186b62e5295c65ef4a31b395262",
    ),
    (
        concat!(
            r#"{"kind":"bathtub","config":"#,
            paper_config!(),
            r#","sweep":{"bits":10000,"phases":32,"frames":8,"tol_db":0.5}}"#
        ),
        "3fdb005d0d19e722acb559b61a3e771b",
    ),
    (
        concat!(
            r#"{"kind":"max_loss","config":"#,
            paper_config!(),
            r#","sweep":{"bits":2,"phases":0,"frames":1024,"tol_db":5e-324}}"#
        ),
        "248e540db52512afda8da430945ceaee",
    ),
    (
        concat!(
            r#"{"kind":"rate_sweep","config":"#,
            paper_config!(),
            r#","sweep":{"bits":10000,"phases":32,"frames":8,"tol_db":0.5},"#,
            r#""rates_hz":["nan","inf",-0.0,2500000000.0]}"#
        ),
        "e23b4962fe68e1a138dd6cb192fe5ef8",
    ),
    (
        concat!(
            r#"{"kind":"corner_sweep","config":"#,
            paper_config!(),
            r#","sweep":{"bits":1048576,"phases":1024,"frames":0,"tol_db":1.7976931348623157e308}}"#
        ),
        "f033ed1a71d16faa42f542c5078cf3db",
    ),
    (
        concat!(
            r#"{"kind":"sta","design":{"name":"cdr","oversampling":8},"#,
            r#""pvt":{"corner":"ss","vdd_v":1.62,"temp_c":125.0},"clock_hz":"nan"}"#
        ),
        "dfd8ef7b158e6c10febfbb3d0a3b954d",
    ),
    (
        r#"{"kind":"lint","design":{"name":"digital_top","oversampling":3}}"#,
        "abd22794aa6ef809aa488d5bc0256b94",
    ),
];

/// `responses()` in order.
const RESPONSE_PINS: [&str; 11] = [
    concat!(
        r#"{"kind":"link","report":{"frames_sent":0,"frames_correct":18446744073709551615,"#,
        r#""bits":18446744073709551615,"bit_errors":0,"cdr_locked":false,"cdr_phase_updates":3,"#,
        r#""alignment_lag":2}}"#
    ),
    concat!(
        r#"{"kind":"faulted","report":{"link":{"frames_sent":0,"frames_correct":18446744073709551615,"#,
        r#""bits":18446744073709551615,"bit_errors":0,"cdr_locked":true,"cdr_phase_updates":3,"#,
        r#""alignment_lag":2},"lock_losses":18446744073709551615,"#,
        r#""relock_times_ui":[0,17,18446744073709551615],"#,
        r#""injected_channel":3,"injected_clock":0,"injected_digital":1}}"#
    ),
    concat!(
        r#"{"kind":"flow","summary":{"design":"q\"b\\s\nn\tt\r\u0001π","cells":0,"flops":12,"#,
        r#""nets":18446744073709551615,"area_um2":"nan","power_mw":-0.0,"fmax_ghz":"inf","#,
        r#""wns_ps":"-inf","tns_ps":-12.5,"violations":1,"hold_violations":0}}"#
    ),
    r#"{"kind":"bathtub","points":[{"phase_ui":0.0,"ber":0.001},{"phase_ui":0.96875,"ber":"nan"}]}"#,
    r#"{"kind":"max_loss","max_loss_db":-0.0}"#,
    concat!(
        r#"{"kind":"rates","points":["#,
        r#"{"data_rate_hz":"inf","sensitivity_v":"nan","max_loss_db":"-inf"},"#,
        r#"{"data_rate_hz":2000000000.0,"sensitivity_v":0.032,"max_loss_db":34.21875}]}"#
    ),
    concat!(
        r#"{"kind":"corners","points":[{"pvt":{"corner":"ff","vdd_v":1.9800000000000002,"temp_c":-40.0},"#,
        r#""max_loss_db":-0.0,"sensitivity_v":"nan"}]}"#
    ),
    concat!(
        r#"{"kind":"sta","summary":{"design":"cdr","clock_ghz":2.0,"fmax_ghz":"inf","wns_ps":-0.0,"#,
        r#""tns_ps":"nan","violations":0,"hold_wns_ps":"-inf","#,
        r#""hold_violations":18446744073709551615,"endpoints":256,"domains":1}}"#
    ),
    concat!(
        r#"{"kind":"lint","summary":{"errors":1,"warnings":0,"infos":18446744073709551615,"#,
        r#""suppressed":3,"findings":["#,
        r#"{"rule":"IR001","severity":"error","message":"q\"b\\s\nn\tt\r\u0001π"},"#,
        r#"{"rule":"","severity":"info","message":""}]}}"#
    ),
    r#"{"kind":"shed","tenant":"q\"b\\s\nn\tt\r\u0001π","priority":255,"queue_depth":0}"#,
    r#"{"kind":"deadline_exceeded","tenant":"","deadline_ms":18446744073709551615,"queued_ms":0}"#,
];

/// `envelopes()` in order.
const ENVELOPE_PINS: [&str; 2] = [
    concat!(
        r#"{"schema":"openserdes-serve/1","tenant":"q\"b\\s\nn\tt\r\u0001π","priority":255,"#,
        r#""seed":18446744073709551615,"#,
        r#""request":{"kind":"lint","design":{"name":"cdr","oversampling":5}}}"#
    ),
    concat!(
        r#"{"schema":"openserdes-serve/1","tenant":"acme","priority":0,"seed":0,"#,
        r#""deadline_ms":18446744073709551615,"#,
        r#""request":{"kind":"lint","design":{"name":"cdr","oversampling":5}}}"#
    ),
];

#[test]
fn every_request_kind_encodes_to_its_pinned_bytes_and_key() {
    for ((request, seed), (bytes, digest)) in requests().iter().zip(REQUEST_PINS) {
        assert_eq!(request.to_canonical_json(), bytes);
        let key = JobKey::of(request, *seed);
        assert_eq!(
            key.canonical,
            format!(r#"{{"request":{bytes},"seed":{seed}}}"#)
        );
        assert_eq!(key.digest, digest, "{bytes}");
        let back = Request::from_json(bytes).expect(bytes);
        assert_eq!(back.to_canonical_json(), bytes, "decode then re-encode");
        assert_eq!(JobKey::of(&back, *seed).digest, digest);
    }
}

#[test]
fn every_response_kind_encodes_to_its_pinned_bytes() {
    for (response, bytes) in responses().iter().zip(RESPONSE_PINS) {
        assert_eq!(response.to_canonical_json(), bytes);
        let back = Response::from_json(bytes).expect(bytes);
        assert_eq!(back.to_canonical_json(), bytes, "decode then re-encode");
        let reply = wire::parse_reply(&wire::ok_frame(bytes)).expect(bytes);
        let served = reply.expect("an ok frame holds a response");
        assert_eq!(served.to_canonical_json(), bytes, "through a reply frame");
    }
}

#[test]
fn envelopes_encode_to_their_pinned_bytes() {
    for (envelope, bytes) in envelopes().iter().zip(ENVELOPE_PINS) {
        assert_eq!(envelope.to_json(), bytes);
        let back = Envelope::from_json(bytes).expect(bytes);
        assert_eq!(&back, envelope);
        assert_eq!(back.to_json(), bytes, "decode then re-encode");
    }
}
