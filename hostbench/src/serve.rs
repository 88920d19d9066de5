//! `serve-reuse`: an in-process `ms_serve` daemon (two workers, disk
//! cache on) driven in a closed loop by two client connections over
//! loopback. The daemon runs for the whole run; each round's set-up
//! empties its cache directory, then the round sends 300 `run` requests
//! drawn by seed from the 120 full-scale design points: each point once
//! as a first request, plus 180 repeats of earlier points with skewed
//! popularity. So 60% of the requests can reuse a stored or in-flight
//! result and 40% compute and store. (At an even split the median
//! request would sit on the edge between the two latency modes: cache
//! loads take a tenth of a millisecond, computations milliseconds.)

use crate::bench::{Bench, Pass, Rng, ServeRound, Setup};
use crate::layers::BenchExecutor;
use crate::sweep::{design_points, settle};
use crate::trace::{self, span, span_under};
use ms_serve::protocol::{parse_response, Response};
use ms_serve::{RunRequest, Server, ServerConfig, ServerHandle, StatsSnapshot};
use ms_sweep::{artifacts, Job, JobKind, JobOutcome, SweepCache};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections; each waits for its reply before the next request.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Repeat requests per round for every first request, as a fraction.
const REPEATS_PER_FIRST: (usize, usize) = (3, 2);
/// A request unanswered for this long counts as failed.
const DEADLINE: Duration = Duration::from_secs(60);

/// One client connection.
struct Conn {
    addr: SocketAddr,
    io: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEADLINE))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut hello = String::new();
        reader.read_line(&mut hello)?;
        Ok((reader, stream))
    }

    /// Sends one request line and reads its reply. A connection that
    /// failed is dropped and reopened on the next call.
    fn call(&mut self, line: &str) -> Result<String, String> {
        if self.io.is_none() {
            self.io = Some(Conn::open(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let (reader, writer) = self.io.as_mut().expect("connection was just opened");
        let mut reply = String::new();
        let out = writer
            .write_all(line.as_bytes())
            .and_then(|()| reader.read_line(&mut reply))
            .map_err(|e| format!("request: {e}"));
        match out {
            Ok(n) if n > 0 => Ok(reply),
            Ok(_) => {
                self.io = None;
                Err("connection closed".into())
            }
            Err(e) => {
                self.io = None;
                Err(e)
            }
        }
    }
}

/// The request sequence of one round: point indices, and whether each is
/// the point's first request in the round.
fn plan(rng: &mut Rng, points: usize) -> Vec<(usize, bool)> {
    let mut order: Vec<usize> = (0..points).collect();
    rng.shuffle(&mut order);
    // Slot 0 is a first request; the rest mix the other firsts with the
    // repeats.
    let repeats = points * REPEATS_PER_FIRST.0 / REPEATS_PER_FIRST.1;
    let mut kinds: Vec<bool> =
        std::iter::repeat_n(true, points - 1).chain(std::iter::repeat_n(false, repeats)).collect();
    rng.shuffle(&mut kinds);
    let mut issued = vec![order[0]];
    let mut seq = vec![(order[0], true)];
    let mut next = 1;
    for first in kinds {
        if first {
            issued.push(order[next]);
            seq.push((order[next], true));
            next += 1;
        } else {
            // Earlier points are more popular: P(rank < r) = sqrt(r / n).
            let u = rng.unit();
            seq.push((issued[(u * u * issued.len() as f64) as usize], false));
        }
    }
    seq
}

pub struct ServeReuse {
    rng: Rng,
    points: Vec<Job>,
    /// The request fields of each point, as `RunRequest` renders them.
    fields: Vec<String>,
    exec: Arc<BenchExecutor>,
    dir: PathBuf,
    server: Option<ServerHandle>,
    /// How long `Server::start` took; the daemon starts once per run.
    start_s: f64,
    conns: Vec<Conn>,
    /// The daemon's counters at the end of the previous round.
    last: StatsSnapshot,
}

impl ServeReuse {
    pub fn new(seed: u64) -> ServeReuse {
        ServeReuse {
            rng: Rng::new(seed),
            points: Vec::new(),
            fields: Vec::new(),
            exec: Arc::new(BenchExecutor::new("serve.compute")),
            dir: PathBuf::from(".hostbench-tmp").join(format!("serve-{}", std::process::id())),
            server: None,
            start_s: 0.0,
            conns: Vec::new(),
            last: StatsSnapshot::default(),
        }
    }
}

fn request_fields(job: &Job) -> String {
    let (kind, units) = match job.kind {
        JobKind::Scalar => ("scalar", 1),
        JobKind::Multiscalar => ("multiscalar", job.cfg.units),
    };
    format!(
        "\"workload\":\"{}\",\"scale\":\"full\",\"kind\":\"{kind}\",\"units\":{units},\"width\":{},\"ooo\":{}",
        job.workload, job.cfg.issue_width, job.cfg.ooo
    )
}

/// The job the daemon builds from a point's request, so the expected
/// reply is rendered from exactly what was asked.
fn served_job(job: &Job) -> Job {
    RunRequest {
        workload: job.workload.clone(),
        scale: job.scale,
        kind: job.kind,
        units: job.cfg.units,
        width: job.cfg.issue_width,
        ooo: job.cfg.ooo,
        partition: None,
    }
    .job()
}

impl Bench for ServeReuse {
    /// Generates the suite and, on the first call, starts the daemon.
    /// Every set-up reports the one start-up time: a daemon serves many
    /// rounds, as it serves many sweeps.
    fn setup(&mut self) -> Setup {
        let (points, suite_s) = design_points();
        self.fields = points.iter().map(request_fields).collect();
        self.points = points.iter().map(served_job).collect();
        if self.server.is_none() {
            let cfg = ServerConfig {
                workers: WORKERS,
                cache: SweepCache::at(&self.dir),
                ..ServerConfig::default()
            };
            let t0 = Instant::now();
            let server =
                Server::start(cfg, self.exec.clone()).expect("start the daemon on loopback");
            self.start_s = t0.elapsed().as_secs_f64();
            let addr = server.addr();
            self.conns = (0..CLIENTS).map(|_| Conn { addr, io: None }).collect();
            self.server = Some(server);
        }
        Setup {
            total_s: suite_s + self.start_s,
            parts: vec![("workloads.suite_s", suite_s), ("serve.start_s", self.start_s)],
        }
    }

    fn pass(&mut self, index: u64) -> Pass {
        // Every round starts on an empty cache directory.
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir)
            .unwrap_or_else(|e| panic!("cannot create cache dir {}: {e}", self.dir.display()));
        for c in &mut self.conns {
            if c.io.is_none() {
                c.io = Conn::open(c.addr).ok();
            }
        }
        let seq = plan(&mut self.rng, self.points.len());
        let base = index * seq.len() as u64;
        let root = trace::current();
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let answers: Vec<(usize, u64, Result<String, String>)> = std::thread::scope(|s| {
            let clients: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let (seq, next, exec) = (&seq, &next, &self.exec);
                    let (points, fields) = (&self.points, &self.fields);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(p, _)) = seq.get(k) else { break };
                            let req = base + k as u64;
                            let id = points[p].id();
                            let line = format!("{{\"op\":\"run\",\"id\":{req},{}}}\n", fields[p]);
                            let t = Instant::now();
                            let reply = span_under("serve.request", root, req, || {
                                let me = trace::current();
                                exec.wait_on(&id, me, req);
                                let reply = conn.call(&line);
                                exec.done_waiting(&id, me);
                                reply
                            });
                            got.push((k, t.elapsed().as_nanos() as u64, reply));
                        }
                        got
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
        });
        let mut pass = Pass { wall_ns: t0.elapsed().as_nanos() as u64, ..Default::default() };

        let server = self.server.as_ref().expect("setup started the daemon");
        let now = span("serve.stats", 0, || server.stats());
        let last = std::mem::replace(&mut self.last, now);
        let mut round = ServeRound {
            requests: now.requests - last.requests,
            computed: now.computed - last.computed,
            cache_hits: now.cache_hits - last.cache_hits,
            dedup_joins: now.dedup_joins - last.dedup_joins,
            overloaded: now.overloaded - last.overloaded,
            peak_queue_depth: now.peak_queue_depth,
            ..ServeRound::default()
        };

        let mut stats = HashMap::new();
        for r in self.exec.take_records() {
            if r.machine != 0 {
                pass.counts.add_skip(&r.row, &r.skip);
            }
            if let Some(s) = r.stats {
                pass.instructions += s.instructions;
                stats.insert(r.id, s);
            }
        }
        for (k, ns, reply) in answers {
            let (p, is_first) = seq[k];
            pass.ops += 1;
            pass.latencies_ns.push(ns);
            if is_first { &mut round.first_ns } else { &mut round.repeat_ns }.push(ns);
            let job = &self.points[p];
            let check = reply.and_then(|line| match parse_response(&line) {
                Ok(Response::Result { id, payload }) if id == base + k as u64 => Ok(payload),
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(format!("unparseable reply: {e}")),
            });
            let check = check.and_then(|payload| {
                let stats = stats.get(&job.id()).ok_or("no computed result for the point")?;
                let outcome =
                    Ok(JobOutcome { job: job.clone(), stats: stats.clone(), cached: false });
                if payload == artifacts::outcome_json(&outcome) {
                    Ok(())
                } else {
                    Err("reply differs from the computed result".to_string())
                }
            });
            if let Err(e) = check {
                pass.fail(format!("{}: {e}", job.id()));
            }
        }
        pass.serve = Some(round);
        settle(&mut pass, &self.points, &stats);
        pass
    }

    fn finish(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".hostbench-tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_asks_every_point_once_first_then_repeats_earlier_points() {
        let seq = plan(&mut Rng::new(5), 120);
        assert_eq!(seq.len(), 300);
        let mut seen = [false; 120];
        for &(p, first) in &seq {
            assert_eq!(first, !seen[p], "a first request precedes every repeat of a point");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(seq.iter().filter(|(_, first)| !first).count(), 180);
        assert_ne!(seq, plan(&mut Rng::new(6), 120), "the seed draws the sequence");
    }
}
