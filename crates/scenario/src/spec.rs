//! The scenario spec: fields, parsing, canonical encoding, digest.
//!
//! The format is the workspace's usual hand-rolled line-oriented text:
//! one `key = value` per line, `#` comments, blank lines ignored. The
//! full key set with the built-in defaults:
//!
//! ```text
//! name = baseline            # mandatory; [a-z0-9-]+
//! traffic = interactive      # interactive | tcplib | mixed
//! upstreams = 2              # watermarked flows
//! decoys = 2                 # unrelated suspicious flows
//! packets = 600              # packets per upstream flow
//! shards = 2                 # decode worker shards
//! decode-batch = 64          # new packets per scheduled decode
//! seed = 1                   # corpus master seed
//! delta-ms = 1000            # adversary perturbation max Δ
//! chaff = poisson 2          # none | poisson RATE (pkts/s, ≤3 decimals)
//! loss = 0                   # drop probability, ≤6 decimals, < 0.9
//! repacketize = none         # none | window-ms N
//! chaos = none               # none | SEED PROFILE (mild|harsh|adversarial)
//! backend = paper            # paper | elices | game
//! decode = strict            # strict | robust (deletion-tolerant)
//! erasure-budget = 64        # robust mode: erased slots tolerated per decode
//! wm-bits = 8                # watermark length l
//! wm-redundancy = 2          # redundancy r
//! wm-offset = 1              # pair offset d
//! wm-adjustment-ms = 1200    # timing adjustment a
//! wm-threshold = 2           # Hamming detection threshold
//! ```
//!
//! Parsing is strict — unknown keys, duplicate keys and out-of-range
//! values are errors — and [`ScenarioSpec::canonical`] re-encodes any
//! parsed spec into one normative text (fixed key order, trimmed
//! decimals), so `parse(canonical(s)) == s` holds for every valid spec
//! and the FNV-1a [`digest`](ScenarioSpec::digest) of the canonical
//! bytes names the scenario reproducibly.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::ScenarioError;

/// Caps keeping a hostile spec from sizing absurd corpora: packets per
/// flow.
pub const MAX_PACKETS: usize = 1_000_000;
/// Cap on watermarked + decoy flow counts (each).
pub const MAX_FLOWS: usize = 4_096;
/// Cap on decode shards.
pub const MAX_SHARDS: usize = 64;
/// Longest accepted scenario text, in bytes.
pub const MAX_SPEC_BYTES: usize = 64 * 1024;

/// Which synthetic traffic model generates the scenario's flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traffic {
    /// Interactive SSH-like sessions (keystroke bursts + think time) —
    /// the paper's §4 regime.
    #[default]
    Interactive,
    /// Heavier-tailed tcplib-style sessions (the §4.2 synthetic
    /// corpus).
    Tcplib,
    /// Alternate interactive and tcplib per flow index, with telnet
    /// background decoys — a mixed-protocol monitored link.
    Mixed,
}

impl Traffic {
    /// The DSL token for this mix.
    pub fn name(self) -> &'static str {
        match self {
            Traffic::Interactive => "interactive",
            Traffic::Tcplib => "tcplib",
            Traffic::Mixed => "mixed",
        }
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The adversary's cover-traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaff {
    /// No chaff.
    None,
    /// Poisson chaff at a fixed rate, stored in packets per 1000
    /// seconds so the spec stays integral (2.5 pkts/s ⇒ 2500).
    PoissonMillis(u64),
}

impl Chaff {
    /// The chaff rate in packets per second (0 for [`Chaff::None`]).
    pub fn rate(self) -> f64 {
        match self {
            Chaff::None => 0.0,
            Chaff::PoissonMillis(m) => m as f64 / 1000.0,
        }
    }
}

/// The repacketization stage of the adversary pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Repacketize {
    /// Packets pass one-to-one (the paper's assumption 1).
    #[default]
    None,
    /// Merge packets closer than this window, in milliseconds — the §6
    /// future-work channel.
    WindowMs(u64),
}

/// The chaos channel profile names, mirroring
/// `stepstone_chaos::Profile` (a consistency test in the experiments
/// crate pins the two lists together; the scenario crate itself stays
/// dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Rare, small channel faults.
    Mild,
    /// Frequent deletion/insertion — the Gong/Kiyavash harsher
    /// channel regime.
    Harsh,
    /// Heavy deletion, bursty insertion, large skews.
    Adversarial,
}

impl ChaosProfile {
    /// The DSL token for this profile.
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::Mild => "mild",
            ChaosProfile::Harsh => "harsh",
            ChaosProfile::Adversarial => "adversarial",
        }
    }
}

/// The correlator backend names, mirroring `stepstone_core::BackendKind`
/// (pinned by a consistency test in the experiments crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The paper's active watermark decoder.
    #[default]
    Paper,
    /// The Elices/Pérez-González coverage GLR.
    Elices,
    /// The game-theoretic linker.
    Game,
}

impl Backend {
    /// Every backend, in spec order.
    pub const ALL: [Backend; 3] = [Backend::Paper, Backend::Elices, Backend::Game];

    /// The DSL token for this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Paper => "paper",
            Backend::Elices => "elices",
            Backend::Game => "game",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The decode-mode names, mirroring `stepstone_core::DecodeMode`
/// (pinned by a consistency test in the experiments crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Decode {
    /// The paper's strict decoder: an unmatched upstream packet proves
    /// the flows unrelated (assumption 1).
    #[default]
    Strict,
    /// The deletion-tolerant decoder: unmatched packets become
    /// erasures, bounded by `erasure-budget`.
    Robust,
}

impl Decode {
    /// Every decode mode, in spec order.
    pub const ALL: [Decode; 2] = [Decode::Strict, Decode::Robust];

    /// The DSL token for this mode.
    pub fn name(self) -> &'static str {
        match self {
            Decode::Strict => "strict",
            Decode::Robust => "robust",
        }
    }
}

impl fmt::Display for Decode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One named, reproducible correlation scenario: traffic mix, corpus
/// sizing, adversary pipeline, chaos channel, backend and thresholds.
/// Everything a run needs is derived from these fields plus the seed,
/// so two holders of the same spec build interchangeable corpora.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name (`[a-z0-9-]+`).
    pub name: String,
    /// Traffic model for the generated flows.
    pub traffic: Traffic,
    /// Watermarked upstream flows; each has exactly one true attacked
    /// downstream in the stream.
    pub upstreams: usize,
    /// Unrelated suspicious flows mixed into the stream.
    pub decoys: usize,
    /// Packets per upstream flow.
    pub packets: usize,
    /// Decode worker shards.
    pub shards: usize,
    /// New packets per scheduled decode.
    pub decode_batch: usize,
    /// Corpus master seed.
    pub seed: u64,
    /// Adversary perturbation max Δ, in milliseconds.
    pub delta_ms: u64,
    /// Chaff model.
    pub chaff: Chaff,
    /// Packet-loss probability in parts per million (assumption-1
    /// relaxation; 0 = lossless).
    pub loss_ppm: u32,
    /// Repacketization stage.
    pub repacketize: Repacketize,
    /// Chaos channel: seed + profile. Scenario chaos is the *channel*
    /// (wire/flow faults); engine-fault soak stays with `--chaos`.
    pub chaos: Option<(u64, ChaosProfile)>,
    /// Correlator backend every upstream registers with.
    pub backend: Backend,
    /// Decode mode every backend runs with.
    pub decode: Decode,
    /// Erased upstream slots a robust decode tolerates before its
    /// verdict degrades (ignored under strict decode).
    pub erasure_budget: u32,
    /// Watermark length `l` in bits.
    pub wm_bits: usize,
    /// Redundancy `r`.
    pub wm_redundancy: usize,
    /// Pair offset `d`.
    pub wm_offset: usize,
    /// Timing adjustment `a`, in milliseconds.
    pub wm_adjustment_ms: u64,
    /// Hamming detection threshold.
    pub wm_threshold: u32,
}

impl ScenarioSpec {
    /// The defaults every key falls back to — a small interactive
    /// scenario under moderate chaff, decoded by the paper backend.
    pub fn base(name: &str) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            traffic: Traffic::Interactive,
            upstreams: 2,
            decoys: 2,
            packets: 600,
            shards: 2,
            decode_batch: 64,
            seed: 1,
            delta_ms: 1000,
            chaff: Chaff::PoissonMillis(2000),
            loss_ppm: 0,
            repacketize: Repacketize::None,
            chaos: None,
            backend: Backend::Paper,
            decode: Decode::Strict,
            erasure_budget: 64,
            wm_bits: 8,
            wm_redundancy: 2,
            wm_offset: 1,
            wm_adjustment_ms: 1200,
            wm_threshold: 2,
        }
    }

    /// Parses and validates a scenario text. Strict: unknown keys,
    /// duplicates, malformed and out-of-range values are all errors.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        if text.len() > MAX_SPEC_BYTES {
            return Err(ScenarioError::Invalid {
                reason: format!("scenario text exceeds {MAX_SPEC_BYTES} bytes"),
            });
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut spec = ScenarioSpec::base("");
        let mut named = false;
        let mut any = false;
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(ScenarioError::BadLine { line });
            };
            any = true;
            let key = key.trim();
            let value = value.trim();
            if !seen.insert(key.to_string()) {
                return Err(ScenarioError::DuplicateKey {
                    key: key.to_string(),
                    line,
                });
            }
            apply(&mut spec, key, value, line)?;
            if key == "name" {
                named = true;
            }
        }
        if !any {
            return Err(ScenarioError::Empty);
        }
        if !named {
            return Err(ScenarioError::MissingName);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Sets one key from its DSL value text, through the same per-key
    /// parser as [`parse`](Self::parse). Errors carry line 0. Does not
    /// validate: call [`validate`](Self::validate) once every key is
    /// set.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        apply(self, key, value.trim(), 0)
    }

    /// Checks cross-field consistency; [`parse`](Self::parse) calls
    /// this, and hand-built specs should too before use.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |reason: String| Err(ScenarioError::Invalid { reason });
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            return fail(format!("name {:?} is not [a-z0-9-]+", self.name));
        }
        if self.upstreams == 0 || self.upstreams > MAX_FLOWS {
            return fail(format!("upstreams must be in 1..={MAX_FLOWS}"));
        }
        if self.decoys > MAX_FLOWS {
            return fail(format!("decoys must be ≤ {MAX_FLOWS}"));
        }
        if self.packets < 64 || self.packets > MAX_PACKETS {
            return fail(format!("packets must be in 64..={MAX_PACKETS}"));
        }
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return fail(format!("shards must be in 1..={MAX_SHARDS}"));
        }
        if self.decode_batch == 0 {
            return fail("decode-batch must be ≥ 1".to_string());
        }
        if self.delta_ms == 0 || self.delta_ms > 60_000 {
            return fail("delta-ms must be in 1..=60000".to_string());
        }
        if let Chaff::PoissonMillis(m) = self.chaff {
            if m > 1_000_000 {
                return fail("chaff rate must be ≤ 1000 pkts/s".to_string());
            }
        }
        if self.loss_ppm >= 900_000 {
            return fail("loss must be < 0.9".to_string());
        }
        if let Repacketize::WindowMs(w) = self.repacketize {
            if w == 0 || w > 60_000 {
                return fail("repacketize window-ms must be in 1..=60000".to_string());
            }
        }
        if self.erasure_budget as usize > MAX_PACKETS {
            return fail(format!("erasure-budget must be ≤ {MAX_PACKETS}"));
        }
        if self.wm_bits == 0 || self.wm_bits > 64 {
            return fail("wm-bits must be in 1..=64".to_string());
        }
        if self.wm_redundancy == 0 || self.wm_redundancy > 64 {
            return fail("wm-redundancy must be in 1..=64".to_string());
        }
        if self.wm_offset == 0 || self.wm_offset > 64 {
            return fail("wm-offset must be in 1..=64".to_string());
        }
        if self.wm_adjustment_ms == 0 || self.wm_adjustment_ms > 60_000 {
            return fail("wm-adjustment-ms must be in 1..=60000".to_string());
        }
        if self.wm_threshold as usize >= self.wm_bits {
            return fail(format!(
                "wm-threshold {} must be below wm-bits {}",
                self.wm_threshold, self.wm_bits
            ));
        }
        // The watermark must be embeddable: each of the l·2r pairs
        // needs two distinct packets, plus the layout's packing slack.
        let needed = self
            .wm_bits
            .saturating_mul(2)
            .saturating_mul(self.wm_redundancy)
            .saturating_mul(2)
            .saturating_add(self.wm_offset);
        if self.packets < needed.saturating_mul(2) {
            return fail(format!(
                "packets {} cannot carry a {}-bit r={} watermark (need ≥ {})",
                self.packets,
                self.wm_bits,
                self.wm_redundancy,
                needed * 2
            ));
        }
        Ok(())
    }

    /// The normative text encoding: every key, fixed order, trimmed
    /// decimals. `parse(canonical(s)) == s` for every valid spec, and
    /// `canonical(parse(t))` is the canonical form of any valid text
    /// `t`.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv("name", self.name.clone());
        kv("traffic", self.traffic.name().to_string());
        kv("upstreams", self.upstreams.to_string());
        kv("decoys", self.decoys.to_string());
        kv("packets", self.packets.to_string());
        kv("shards", self.shards.to_string());
        kv("decode-batch", self.decode_batch.to_string());
        kv("seed", self.seed.to_string());
        kv("delta-ms", self.delta_ms.to_string());
        kv(
            "chaff",
            match self.chaff {
                Chaff::None => "none".to_string(),
                Chaff::PoissonMillis(m) => format!("poisson {}", render_fixed(m, 3)),
            },
        );
        kv("loss", render_fixed(u64::from(self.loss_ppm), 6));
        kv(
            "repacketize",
            match self.repacketize {
                Repacketize::None => "none".to_string(),
                Repacketize::WindowMs(w) => format!("window-ms {w}"),
            },
        );
        kv(
            "chaos",
            match self.chaos {
                None => "none".to_string(),
                Some((seed, profile)) => format!("{seed} {}", profile.name()),
            },
        );
        kv("backend", self.backend.name().to_string());
        kv("decode", self.decode.name().to_string());
        kv("erasure-budget", self.erasure_budget.to_string());
        kv("wm-bits", self.wm_bits.to_string());
        kv("wm-redundancy", self.wm_redundancy.to_string());
        kv("wm-offset", self.wm_offset.to_string());
        kv("wm-adjustment-ms", self.wm_adjustment_ms.to_string());
        kv("wm-threshold", self.wm_threshold.to_string());
        out
    }

    /// FNV-1a/64 digest of the canonical encoding — the scenario's
    /// reproducible identity, printed at load by every consumer.
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Total suspicious flows in the scenario's stream.
    pub fn suspicious_flows(&self) -> usize {
        self.upstreams + self.decoys
    }

    /// Candidate pairs a monitor tracks: every suspicious flow against
    /// every upstream.
    pub fn candidate_pairs(&self) -> usize {
        self.upstreams * self.suspicious_flows()
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{:016x}]: {} {}+{}x{}pkt Δ{}ms chaff {} loss {} backend {}",
            self.name,
            self.digest(),
            self.traffic,
            self.upstreams,
            self.decoys,
            self.packets,
            self.delta_ms,
            match self.chaff {
                Chaff::None => "none".to_string(),
                Chaff::PoissonMillis(m) => format!("poisson {}", render_fixed(m, 3)),
            },
            render_fixed(u64::from(self.loss_ppm), 6),
            self.backend,
        )
    }
}

/// FNV-1a over `bytes`, 64-bit — the workspace's usual schedule-digest
/// hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Applies one `key = value` pair onto the spec under construction.
fn apply(
    spec: &mut ScenarioSpec,
    key: &str,
    value: &str,
    line: usize,
) -> Result<(), ScenarioError> {
    let bad = |reason: String| ScenarioError::BadValue {
        key: key.to_string(),
        line,
        reason,
    };
    let count = |value: &str| -> Result<usize, ScenarioError> {
        value.parse::<usize>().map_err(|e| bad(e.to_string()))
    };
    match key {
        "name" => spec.name = value.to_string(),
        "traffic" => {
            spec.traffic = match value {
                "interactive" => Traffic::Interactive,
                "tcplib" => Traffic::Tcplib,
                "mixed" => Traffic::Mixed,
                other => return Err(bad(format!("unknown traffic {other:?}"))),
            }
        }
        "upstreams" => spec.upstreams = count(value)?,
        "decoys" => spec.decoys = count(value)?,
        "packets" => spec.packets = count(value)?,
        "shards" => spec.shards = count(value)?,
        "decode-batch" => spec.decode_batch = count(value)?,
        "seed" => spec.seed = value.parse().map_err(|e| bad(format!("{e}")))?,
        "delta-ms" => spec.delta_ms = value.parse().map_err(|e| bad(format!("{e}")))?,
        "chaff" => {
            spec.chaff = match value.split_once(char::is_whitespace) {
                None if value == "none" => Chaff::None,
                Some((model, rate)) if model.trim() == "poisson" => {
                    Chaff::PoissonMillis(parse_fixed(rate.trim(), 3).map_err(&bad)?)
                }
                _ => {
                    return Err(bad(format!(
                        "expected `none` or `poisson RATE`, got {value:?}"
                    )))
                }
            }
        }
        "loss" => {
            let ppm = parse_fixed(value, 6).map_err(&bad)?;
            spec.loss_ppm = u32::try_from(ppm).map_err(|_| bad("loss too large".to_string()))?;
        }
        "repacketize" => {
            spec.repacketize = match value.split_once(char::is_whitespace) {
                None if value == "none" => Repacketize::None,
                Some((kind, w)) if kind.trim() == "window-ms" => {
                    Repacketize::WindowMs(w.trim().parse().map_err(|e| bad(format!("{e}")))?)
                }
                _ => {
                    return Err(bad(format!(
                        "expected `none` or `window-ms N`, got {value:?}"
                    )))
                }
            }
        }
        "chaos" => {
            spec.chaos = match value.split_once(char::is_whitespace) {
                None if value == "none" => None,
                Some((seed, profile)) => {
                    let seed = seed
                        .trim()
                        .parse::<u64>()
                        .map_err(|e| bad(format!("bad chaos seed: {e}")))?;
                    let profile = match profile.trim() {
                        "mild" => ChaosProfile::Mild,
                        "harsh" => ChaosProfile::Harsh,
                        "adversarial" => ChaosProfile::Adversarial,
                        other => return Err(bad(format!("unknown chaos profile {other:?}"))),
                    };
                    Some((seed, profile))
                }
                _ => {
                    return Err(bad(format!(
                        "expected `none` or `SEED PROFILE`, got {value:?}"
                    )))
                }
            }
        }
        "backend" => {
            spec.backend = match value {
                "paper" => Backend::Paper,
                "elices" => Backend::Elices,
                "game" => Backend::Game,
                other => {
                    return Err(bad(format!(
                        "unknown backend {other:?}; valid: paper, elices, game"
                    )))
                }
            }
        }
        "decode" => {
            spec.decode = match value {
                "strict" => Decode::Strict,
                "robust" => Decode::Robust,
                other => {
                    return Err(bad(format!(
                        "unknown decode mode {other:?}; valid: strict, robust"
                    )))
                }
            }
        }
        "erasure-budget" => spec.erasure_budget = value.parse().map_err(|e| bad(format!("{e}")))?,
        "wm-bits" => spec.wm_bits = count(value)?,
        "wm-redundancy" => spec.wm_redundancy = count(value)?,
        "wm-offset" => spec.wm_offset = count(value)?,
        "wm-adjustment-ms" => {
            spec.wm_adjustment_ms = value.parse().map_err(|e| bad(format!("{e}")))?
        }
        "wm-threshold" => spec.wm_threshold = value.parse().map_err(|e| bad(format!("{e}")))?,
        other => {
            return Err(ScenarioError::UnknownKey {
                key: other.to_string(),
                line,
            })
        }
    }
    Ok(())
}

/// Parses a non-negative decimal with at most `scale` fractional
/// digits into fixed-point units of 10^-scale (e.g. `"2.5"` at scale 3
/// ⇒ 2500). Keeps the DSL integral end to end: no float round-trip
/// ambiguity in the canonical encoding.
fn parse_fixed(s: &str, scale: u32) -> Result<u64, String> {
    let (int, frac) = match s.split_once('.') {
        Some((_, "")) => return Err(format!("{s:?} ends with a bare decimal point")),
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    if int.is_empty() || !int.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{s:?} is not a non-negative decimal"));
    }
    if frac.len() > scale as usize || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "{s:?} has more than {scale} fractional digits (or non-digits)"
        ));
    }
    let unit = 10u64.pow(scale);
    let int: u64 = int.parse().map_err(|e| format!("{e}"))?;
    let mut frac_units: u64 = 0;
    if !frac.is_empty() {
        frac_units =
            frac.parse::<u64>().map_err(|e| format!("{e}"))? * 10u64.pow(scale - frac.len() as u32);
    }
    int.checked_mul(unit)
        .and_then(|v| v.checked_add(frac_units))
        .ok_or_else(|| format!("{s:?} overflows"))
}

/// Renders fixed-point units of 10^-scale back to the shortest decimal
/// (`2500` at scale 3 ⇒ `"2.5"`, `2000` ⇒ `"2"`).
fn render_fixed(units: u64, scale: u32) -> String {
    let unit = 10u64.pow(scale);
    let int = units / unit;
    let frac = units % unit;
    if frac == 0 {
        return int.to_string();
    }
    let mut digits = format!("{frac:0width$}", width = scale as usize);
    while digits.ends_with('0') {
        digits.pop();
    }
    format!("{int}.{digits}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_canonical() {
        let spec = ScenarioSpec::base("baseline");
        spec.validate().expect("defaults validate");
        let text = spec.canonical();
        let back = ScenarioSpec::parse(&text).expect("canonical parses");
        assert_eq!(back, spec);
        assert_eq!(back.canonical(), text);
    }

    #[test]
    fn minimal_spec_is_just_a_name() {
        let spec = ScenarioSpec::parse("name = tiny\n").expect("name-only spec parses");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec, {
            let mut base = ScenarioSpec::base("tiny");
            base.name = "tiny".to_string();
            base
        });
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a scenario\n\nname = c1  # inline comment\n  upstreams = 3\n";
        let spec = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(spec.upstreams, 3);
    }

    #[test]
    fn fixed_point_chaff_and_loss_round_trip() {
        let text = "name = fp\nchaff = poisson 2.5\nloss = 0.0312\n";
        let spec = ScenarioSpec::parse(text).expect("parses");
        assert_eq!(spec.chaff, Chaff::PoissonMillis(2500));
        assert_eq!(spec.loss_ppm, 31_200);
        let canon = spec.canonical();
        assert!(canon.contains("chaff = poisson 2.5\n"), "{canon}");
        assert!(canon.contains("loss = 0.0312\n"), "{canon}");
        assert_eq!(ScenarioSpec::parse(&canon).expect("round-trips"), spec);
    }

    #[test]
    fn typed_errors_carry_lines() {
        assert_eq!(ScenarioSpec::parse(""), Err(ScenarioError::Empty));
        assert_eq!(
            ScenarioSpec::parse("upstreams = 2\n"),
            Err(ScenarioError::MissingName)
        );
        assert_eq!(
            ScenarioSpec::parse("name = x\nwat\n"),
            Err(ScenarioError::BadLine { line: 2 })
        );
        assert_eq!(
            ScenarioSpec::parse("name = x\nbogus = 1\n"),
            Err(ScenarioError::UnknownKey {
                key: "bogus".to_string(),
                line: 2
            })
        );
        assert_eq!(
            ScenarioSpec::parse("name = x\nname = y\n"),
            Err(ScenarioError::DuplicateKey {
                key: "name".to_string(),
                line: 2
            })
        );
        assert!(matches!(
            ScenarioSpec::parse("name = x\nseed = owl\n"),
            Err(ScenarioError::BadValue { key, line: 2, .. }) if key == "seed"
        ));
        assert!(matches!(
            ScenarioSpec::parse("name = x\nwm-threshold = 99\n"),
            Err(ScenarioError::Invalid { .. })
        ));
        assert!(matches!(
            ScenarioSpec::parse("name = UPPER\n"),
            Err(ScenarioError::Invalid { .. })
        ));
    }

    #[test]
    fn packets_must_carry_the_watermark() {
        let err = ScenarioSpec::parse("name = x\npackets = 64\nwm-bits = 24\nwm-redundancy = 4\n");
        assert!(
            matches!(err, Err(ScenarioError::Invalid { ref reason }) if reason.contains("carry")),
            "{err:?}"
        );
    }

    #[test]
    fn digest_is_stable_and_content_addressed() {
        let a = ScenarioSpec::base("a");
        let mut b = ScenarioSpec::base("a");
        assert_eq!(a.digest(), b.digest());
        b.seed = 2;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn chaos_parses_seed_and_profile() {
        let spec = ScenarioSpec::parse("name = c\nchaos = 44 harsh\n").expect("parses");
        assert_eq!(spec.chaos, Some((44, ChaosProfile::Harsh)));
        assert!(spec.canonical().contains("chaos = 44 harsh\n"));
        assert!(ScenarioSpec::parse("name = c\nchaos = 44 bogus\n").is_err());
        assert!(ScenarioSpec::parse("name = c\nchaos = nope\n").is_err());
    }

    #[test]
    fn decode_mode_parses_and_round_trips() {
        let spec = ScenarioSpec::parse("name = r\ndecode = robust\nerasure-budget = 48\n")
            .expect("parses");
        assert_eq!(spec.decode, Decode::Robust);
        assert_eq!(spec.erasure_budget, 48);
        let canon = spec.canonical();
        assert!(canon.contains("decode = robust\n"), "{canon}");
        assert!(canon.contains("erasure-budget = 48\n"), "{canon}");
        assert_eq!(ScenarioSpec::parse(&canon).expect("round-trips"), spec);
        assert!(matches!(
            ScenarioSpec::parse("name = r\ndecode = fuzzy\n"),
            Err(ScenarioError::BadValue { key, .. }) if key == "decode"
        ));
        assert!(ScenarioSpec::parse("name = r\nerasure-budget = 999999999\n").is_err());
    }

    #[test]
    fn set_runs_the_per_key_parser_without_a_line() {
        let mut spec = ScenarioSpec::base("s");
        spec.set("loss", " 0.05 ").expect("loss parses");
        spec.set("decode", "robust").expect("decode parses");
        assert_eq!(spec.loss_ppm, 50_000);
        assert_eq!(spec.decode, Decode::Robust);
        let err = spec.set("backend", "bogus").expect_err("unknown backend");
        assert!(
            err.to_string().starts_with("bad value for \"backend\""),
            "{err}"
        );
        let err = spec.set("no-such-key", "1").expect_err("unknown key");
        assert_eq!(err.to_string(), "unknown key \"no-such-key\"");
        // `set` leaves cross-field checks to `validate`.
        spec.set("packets", "64").expect("a count parses");
        assert!(spec.validate().is_err());
    }

    #[test]
    fn render_fixed_trims() {
        assert_eq!(render_fixed(2000, 3), "2");
        assert_eq!(render_fixed(2500, 3), "2.5");
        assert_eq!(render_fixed(2505, 3), "2.505");
        assert_eq!(render_fixed(0, 6), "0");
        assert_eq!(render_fixed(31_200, 6), "0.0312");
    }

    #[test]
    fn parse_fixed_rejects_junk() {
        assert!(parse_fixed("2.5", 3).is_ok());
        assert!(parse_fixed(".5", 3).is_err());
        assert!(parse_fixed("2.", 3).is_err());
        assert!(parse_fixed("-1", 3).is_err());
        assert!(parse_fixed("2.0001", 3).is_err());
        assert!(parse_fixed("1e3", 3).is_err());
    }
}
