//! Closed-loop load generator for `ancstr serve`.
//!
//! `--conns` client threads in this one process each send a request,
//! wait for the reply, and send the next, because the daemon's callers
//! (CI jobs, layout flows) each wait for their answer. Requests come in
//! decks: for each unit of a body's weight, a deck holds `HOT_PER_DECK`
//! byte-identical resubmissions (cache hits once warm) and one cold copy
//! carrying a unique comment line (a miss that runs the whole pipeline),
//! shuffled by the seed. A deck is an 80/20 hot/cold mix, and a run of
//! whole decks does the same work at every seed.
//!
//! Every reply must be `200` with `constraints_text` equal to the
//! reference bytes the manifest names; anything else is a failure.

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hot resubmissions of each body per deck (plus one cold copy).
const HOT_PER_DECK: usize = 4;

struct Body {
    weight: usize,
    text: Vec<u8>,
    expected: String,
}

struct Sample {
    deck: usize,
    cold: bool,
    start_ms: f64,
    end_ms: f64,
    ok: bool,
}

/// SplitMix64: a tiny seeded generator for the deck shuffle.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deck `d` as `(body, cold)` items in seeded order.
fn deck(seed: u64, d: usize, bodies: &[Body]) -> Vec<(usize, bool)> {
    let mut items: Vec<(usize, bool)> = Vec::new();
    for (b, body) in bodies.iter().enumerate() {
        for k in 0..body.weight * (HOT_PER_DECK + 1) {
            items.push((b, k % (HOT_PER_DECK + 1) == HOT_PER_DECK));
        }
    }
    let mut state = seed ^ (d as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Decode the JSON string value of `key` in a flat reply object.
fn json_string(doc: &str, key: &str) -> Option<String> {
    let rest = &doc[doc.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                c => c,
            }),
            c => out.push(c),
        }
    }
}

/// One `POST /v1/extract` on a fresh connection (the daemon answers one
/// request per connection). Returns the status and the body.
fn post(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.write_all(request)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let reply = String::from_utf8_lossy(&reply);
    let status = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = reply
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    Ok((status, body))
}

fn request_bytes(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/extract HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

struct Options {
    addr: SocketAddr,
    manifest: String,
    seed: u64,
    seconds: f64,
    conns: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        manifest: String::new(),
        seed: 0,
        seconds: 1.0,
        conns: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--addr" => opts.addr = value.parse().map_err(|_| bad())?,
            "--manifest" => opts.manifest = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--conns" => {
                opts.conns = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Manifest lines: `<weight>\t<body.sp>\t<reference constraints.txt>`.
fn read_bodies(manifest: &str) -> Result<Vec<Body>, String> {
    let text = fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let mut bodies = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let bad = || format!("{manifest}: bad line `{line}`");
        let [weight, body, expected] = line.split('\t').collect::<Vec<_>>()[..] else {
            return Err(bad());
        };
        bodies.push(Body {
            weight: weight.parse().ok().filter(|&w| w > 0).ok_or_else(bad)?,
            text: fs::read(body).map_err(|e| format!("{body}: {e}"))?,
            expected: fs::read_to_string(expected).map_err(|e| format!("{expected}: {e}"))?,
        });
    }
    if bodies.is_empty() {
        return Err(format!("{manifest}: no bodies"));
    }
    Ok(bodies)
}

/// `load`: drive the daemon in whole decks until `--seconds` have passed
/// (no deck starts after that, and a started deck is finished), and
/// print every request's deck, kind, start/end offsets (ms from the
/// first send) and outcome.
pub fn run(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let bodies = read_bodies(&opts.manifest)?;
    let hot: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| request_bytes(opts.addr, &b.text))
        .collect();
    let per_deck: usize = bodies.iter().map(|b| b.weight * (HOT_PER_DECK + 1)).sum();
    let next = AtomicUsize::new(0);
    let stop_deck = AtomicUsize::new(usize::MAX);
    let samples = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(opts.seconds);
    std::thread::scope(|scope| {
        for _ in 0..opts.conns {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut current_deck = (usize::MAX, Vec::new());
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let d = i / per_deck;
                    if d >= stop_deck.load(Ordering::SeqCst) {
                        break;
                    }
                    if i.is_multiple_of(per_deck) && t0.elapsed() >= deadline {
                        stop_deck.fetch_min(d, Ordering::SeqCst);
                        break;
                    }
                    if current_deck.0 != d {
                        current_deck = (d, deck(opts.seed, d, &bodies));
                    }
                    let (b, cold) = current_deck.1[i % per_deck];
                    let cold_request;
                    let request = if cold {
                        let mut body = bodies[b].text.clone();
                        // Unique within a daemon's life: a traced run
                        // drives two windows that differ in `--conns`.
                        body.extend_from_slice(
                            format!("* perfbench cold request {}-{i}\n", opts.conns).as_bytes(),
                        );
                        cold_request = request_bytes(opts.addr, &body);
                        &cold_request
                    } else {
                        &hot[b]
                    };
                    let start = t0.elapsed();
                    let reply = post(opts.addr, request);
                    let end = t0.elapsed();
                    let ok = match &reply {
                        Ok((200, doc)) => {
                            json_string(doc, "constraints_text").as_deref()
                                == Some(bodies[b].expected.as_str())
                        }
                        _ => false,
                    };
                    mine.push(Sample {
                        deck: d,
                        cold,
                        start_ms: start.as_secs_f64() * 1e3,
                        end_ms: end.as_secs_f64() * 1e3,
                        ok,
                    });
                }
                samples
                    .lock()
                    .expect("a client thread panicked")
                    .extend(mine);
            });
        }
    });
    let samples = samples.into_inner().expect("a client thread panicked");
    let column = |f: &dyn Fn(&Sample) -> String| -> String {
        samples.iter().map(f).collect::<Vec<_>>().join(",")
    };
    Ok(format!(
        "{{\"per_deck\": {per_deck}, \"deck\": [{}], \"cold\": [{}], \"start_ms\": [{}], \
         \"end_ms\": [{}], \"ok\": [{}]}}",
        column(&|s| s.deck.to_string()),
        column(&|s| u8::from(s.cold).to_string()),
        column(&|s| format!("{:.4}", s.start_ms)),
        column(&|s| format!("{:.4}", s.end_ms)),
        column(&|s| u8::from(s.ok).to_string()),
    ))
}
