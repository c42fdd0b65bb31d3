//! The SurfOS operator shell: a line-oriented command interpreter over the
//! kernel, in the tradition of network-OS consoles (NOX, ONOS).
//!
//! The paper positions SurfOS as "a service from ISPs, a module of Cloud
//! RAN, or a standalone system" — all of which need an operator surface.
//! [`Shell`] is that surface: deploy hardware, register endpoints, submit
//! service requests (or plain-language intents), run the kernel clock and
//! inspect the radio environment, one command per line. The `surfosd`
//! binary wraps it over stdin or a script file.
//!
//! ```text
//! scenario apartment
//! band 28ghz
//! deploy wall0 scattermimo bedroom-north
//! ap ap0 aim bedroom-north
//! client laptop 6.5 1.5 1.2
//! say I want to watch a movie on my laptop
//! step 10 3
//! budget ap0 laptop
//! diagnose ap0 laptop
//! heatmap bedroom
//! telemetry
//! ```

use crate::kernel::SurfOS;
use surfos_channel::{diagnose_link, ChannelSim, Endpoint};
use surfos_em::band::{Band, NamedBand};
use surfos_geometry::scenario::{corridor, open_office, two_room_apartment, Scenario};
use surfos_geometry::{Pose, Vec3};
use surfos_hw::designs;
use surfos_hw::driver::{PassiveDriver, ProgrammableDriver, SurfaceDriver};
use surfos_orchestrator::service::SERVICE_KINDS;
use surfos_orchestrator::ServiceRequest;

/// A shell error: which line failed and why.
#[derive(Debug, Clone, PartialEq)]
pub struct ShellError {
    /// 1-based line number in the script.
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for ShellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ShellError {}

/// The interpreter state: a scenario being assembled, then a live kernel.
pub struct Shell {
    scenario: Option<Scenario>,
    band: Band,
    os: Option<SurfOS>,
    line: usize,
    /// Baseline for the `top` command: the previous snapshot and when it
    /// was taken. `top` renders counter *rates* between two calls.
    top_baseline: Option<(std::time::Instant, surfos_obs::Snapshot)>,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

impl Shell {
    /// A fresh shell (no scenario loaded; band defaults to 28 GHz).
    pub fn new() -> Self {
        Shell {
            scenario: None,
            band: NamedBand::MmWave28GHz.band(),
            os: None,
            line: 0,
            top_baseline: None,
        }
    }

    /// Consumes the shell, yielding the kernel it built (if any command
    /// booted one). `surfosd serve` runs its `--setup` script through a
    /// shell, then lifts the kernel out to serve it over the wire.
    pub fn into_kernel(self) -> Option<SurfOS> {
        self.os
    }

    fn err(&self, what: impl Into<String>) -> ShellError {
        ShellError {
            line: self.line,
            what: what.into(),
        }
    }

    fn scenario(&self) -> Result<&Scenario, ShellError> {
        self.scenario.as_ref().ok_or_else(|| {
            self.err("no scenario loaded (use `scenario apartment|office|corridor`)")
        })
    }

    fn os_mut(&mut self) -> Result<&mut SurfOS, ShellError> {
        if self.os.is_none() {
            let scen = self.scenario()?.clone();
            let sim = ChannelSim::new(scen.plan.clone(), self.band);
            let mut os = SurfOS::new(sim);
            os.set_user_room(scen.target_room.clone());
            self.os = Some(os);
        }
        Ok(self.os.as_mut().expect("just initialized"))
    }

    /// Refuses new work on a kernel that cannot run any task (see
    /// [`Orchestrator::admission_error`](surfos_orchestrator::Orchestrator::admission_error)).
    fn check_admission(&mut self) -> Result<(), ShellError> {
        match self.os_mut()?.orchestrator().admission_error() {
            Some(reason) => Err(self.err(reason)),
            None => Ok(()),
        }
    }

    /// Both ends of a link, by id.
    fn endpoint_pair(&mut self, tx: &str, rx: &str) -> Result<(Endpoint, Endpoint), ShellError> {
        let pair = self
            .os_mut()?
            .orchestrator()
            .endpoint_pair(tx, rx)
            .map(|(tx, rx)| (tx.clone(), rx.clone()));
        pair.map_err(|what| self.err(what))
    }

    fn parse_f64(&self, s: &str, what: &str) -> Result<f64, ShellError> {
        s.parse()
            .map_err(|_| self.err(format!("bad {what}: {s:?}")))
    }

    fn anchor_pose(&self, name: &str) -> Result<Pose, ShellError> {
        self.scenario()?
            .anchor(name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown anchor {name:?}")))
    }

    fn parse_band(&self, spec: &str) -> Result<Band, ShellError> {
        Ok(match spec.to_lowercase().as_str() {
            "2.4ghz" => NamedBand::Ism2_4GHz.band(),
            "3.5ghz" => NamedBand::Cellular3_5GHz.band(),
            "5ghz" => NamedBand::WiFi5GHz.band(),
            "24ghz" => NamedBand::MmWave24GHz.band(),
            "28ghz" => NamedBand::MmWave28GHz.band(),
            "60ghz" => NamedBand::MmWave60GHz.band(),
            other => return Err(self.err(format!("unknown band {other:?}"))),
        })
    }

    fn design_by_name(&self, name: &str) -> Result<surfos_hw::HardwareSpec, ShellError> {
        let norm = name.to_lowercase().replace(['-', '_'], "");
        designs::all_designs()
            .into_iter()
            .find(|s| s.model.to_lowercase().replace(['-', '_'], "") == norm)
            .ok_or_else(|| self.err(format!("unknown design {name:?} (see `designs`)")))
    }

    /// Executes one command line; returns its output text (may be empty).
    pub fn execute(&mut self, input: &str) -> Result<String, ShellError> {
        self.line += 1;
        let input = input.trim();
        if input.is_empty() || input.starts_with('#') {
            return Ok(String::new());
        }
        let mut parts = input.split_whitespace();
        let cmd = parts.next().expect("non-empty");
        let args: Vec<&str> = parts.collect();

        match cmd {
            "scenario" => {
                let name = args.first().ok_or_else(|| self.err("scenario <name>"))?;
                self.scenario = Some(match *name {
                    "apartment" => two_room_apartment(),
                    "office" => open_office(),
                    "corridor" => corridor(),
                    other => return Err(self.err(format!("unknown scenario {other:?}"))),
                });
                self.os = None;
                Ok(format!("scenario {name} loaded"))
            }
            "band" => {
                let spec = args.first().ok_or_else(|| self.err("band <e.g. 28ghz>"))?;
                self.band = self.parse_band(spec)?;
                if self.os.is_some() {
                    return Err(self.err("band must be set before the first deployment"));
                }
                Ok(format!("band set to {}", self.band))
            }
            "designs" => {
                let names: Vec<String> = designs::all_designs()
                    .into_iter()
                    .map(|s| s.model)
                    .collect();
                Ok(names.join(", "))
            }
            "anchors" => {
                let names: Vec<String> = self
                    .scenario()?
                    .anchors
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect();
                Ok(names.join(", "))
            }
            "deploy" => {
                let [id, design, anchor] = args[..] else {
                    return Err(self.err("deploy <id> <design> <anchor>"));
                };
                let mut spec = self.design_by_name(design)?;
                // Retarget the design to the session band (pitch ∝ λ).
                let scale = self.band.wavelength_m() / spec.band.wavelength_m();
                spec.pitch_m *= scale;
                spec.band = self.band;
                let pose = self.anchor_pose(anchor)?;
                let driver: Box<dyn SurfaceDriver> = if spec.is_passive() {
                    Box::new(PassiveDriver::new(spec.clone()))
                } else {
                    Box::new(ProgrammableDriver::new(spec.clone()))
                };
                let idx = self.os_mut()?.deploy_surface(id, driver, pose);
                Ok(format!(
                    "deployed {id} ({}, {} elements) at {anchor} as surface {idx}",
                    spec.model,
                    spec.element_count()
                ))
            }
            "ap" => {
                let id = *args
                    .first()
                    .ok_or_else(|| self.err("ap <id> [aim <anchor>]"))?;
                let scen = self.scenario()?.clone();
                let pose = if args.len() >= 3 && args[1] == "aim" {
                    let target = self.anchor_pose(args[2])?.position;
                    Pose::wall_mounted(scen.ap_pose.position, target - scen.ap_pose.position)
                } else {
                    scen.ap_pose
                };
                self.os_mut()?
                    .add_endpoint(Endpoint::access_point(id, pose));
                Ok(format!("access point {id} registered"))
            }
            "client" | "tag" => {
                let [id, x, y, z] = args[..] else {
                    return Err(self.err(format!("{cmd} <id> <x> <y> <z>")));
                };
                let p = Vec3::new(
                    self.parse_f64(x, "x")?,
                    self.parse_f64(y, "y")?,
                    self.parse_f64(z, "z")?,
                );
                let endpoint = if cmd == "client" {
                    Endpoint::client(id, p)
                } else {
                    Endpoint::sensor_tag(id, p)
                };
                self.os_mut()?.add_endpoint(endpoint);
                Ok(format!("{cmd} {id} at {p}"))
            }
            "say" => {
                if args.is_empty() {
                    return Err(self.err("say <utterance>"));
                }
                self.check_admission()?;
                let utterance = args.join(" ");
                let os = self.os_mut()?;
                let tasks = os.handle_utterance(&utterance);
                if tasks.is_empty() {
                    Ok("no service invoked".into())
                } else {
                    let lines: Vec<String> = tasks
                        .iter()
                        .map(|t| {
                            let task = os.orchestrator().tasks.get(*t).expect("task");
                            format!("task {} ← {}", task.id, task.request)
                        })
                        .collect();
                    Ok(lines.join("\n"))
                }
            }
            "request" => {
                let [kind, subject, value] = args[..] else {
                    return Err(self.err(format!("request <{SERVICE_KINDS}> <subject> <value>")));
                };
                let value = self.parse_f64(value, "value")?;
                self.check_admission()?;
                let req =
                    ServiceRequest::from_kind(kind, subject, value).map_err(|e| self.err(e))?;
                let id = self.os_mut()?.submit(req);
                Ok(format!("task {id} admitted"))
            }
            "step" => {
                let dt: u64 = args
                    .first()
                    .map(|s| s.parse().map_err(|_| self.err("bad dt")))
                    .transpose()?
                    .unwrap_or(10);
                let times: usize = args
                    .get(1)
                    .map(|s| s.parse().map_err(|_| self.err("bad repeat count")))
                    .transpose()?
                    .unwrap_or(1);
                let os = self.os_mut()?;
                let mut optimized = 0;
                let mut reaped = 0;
                for _ in 0..times {
                    let r = os.step(dt);
                    optimized += r.optimized_slots.len();
                    reaped += r.reaped.len();
                    if let Some((id, e)) = r.push_errors.first() {
                        return Err(ShellError {
                            line: 0,
                            what: format!("driver push failed on {id}: {e}"),
                        });
                    }
                }
                Ok(format!(
                    "stepped {times}×{dt} ms: {optimized} slot optimizations, {reaped} tasks reaped"
                ))
            }
            "measure" => {
                let id = args.first().ok_or_else(|| self.err("measure <task-id>"))?;
                let task: u64 = id.parse().map_err(|_| self.err("bad task id"))?;
                let os = self.os_mut()?;
                match os.measure(task) {
                    Some(v) => Ok(format!("task {task} metric: {v:.2}")),
                    None => Err(ShellError {
                        line: 0,
                        what: format!("task {task} not measurable"),
                    }),
                }
            }
            "budget" => {
                let [tx, rx] = args[..] else {
                    return Err(self.err("budget <tx-id> <rx-id>"));
                };
                let (tx, rx) = self.endpoint_pair(tx, rx)?;
                let b = self.os_mut()?.sim().link_budget(&tx, &rx);
                Ok(format!(
                    "RSS {:.1} dBm | noise {:.1} dBm | SNR {:.1} dB | capacity {:.0} Mb/s",
                    b.rss_dbm,
                    b.noise_dbm,
                    b.snr_db,
                    b.capacity_bps / 1e6
                ))
            }
            "diagnose" => {
                let [tx, rx] = args[..] else {
                    return Err(self.err("diagnose <tx-id> <rx-id>"));
                };
                let (tx, rx) = self.endpoint_pair(tx, rx)?;
                let d = diagnose_link(self.os_mut()?.sim(), &tx, &rx);
                let mut out = vec![format!("total {:.1} dB", d.total_db)];
                for c in d.contributions.iter().take(5) {
                    out.push(format!(
                        "  {:<28} {:>7.1} dB rel",
                        c.mechanism, c.solo_rel_db
                    ));
                }
                Ok(out.join("\n"))
            }
            "heatmap" => {
                let room = args.first().ok_or_else(|| self.err("heatmap <room>"))?;
                let os = self.os_mut()?;
                let Some(room) = os.sim().plan.room(room).cloned() else {
                    return Err(ShellError {
                        line: 0,
                        what: format!("unknown room {room:?}"),
                    });
                };
                let grid = room.sample_grid(12, 8, 1.2, 0.3);
                let ap = match os.orchestrator().try_ap() {
                    Ok(ap) => ap.clone(),
                    Err(what) => {
                        return Err(ShellError {
                            line: 0,
                            what: what.into(),
                        })
                    }
                };
                let probe = Endpoint::client("probe", grid[0]);
                let map = os.sim().snr_heatmap(&ap, &grid, &probe);
                Ok(format!(
                    "{}median SNR {:.1} dB (min {:.1}, max {:.1})",
                    map.ascii(36, 10),
                    map.median(),
                    map.min(),
                    map.max()
                ))
            }
            "crossband" => {
                // §2.1 interference check: how this deployment affects a
                // *different* network's link.
                let [band, tx, rx] = args[..] else {
                    return Err(self.err("crossband <band> <tx-id> <rx-id>"));
                };
                let foreign_band = self.parse_band(band)?;
                let (tx, rx) = self.endpoint_pair(tx, rx)?;
                let foreign = self.os_mut()?.foreign_band_view(foreign_band);
                let with_surfaces = foreign.rss_dbm(&tx, &rx);
                let clear = ChannelSim::new(foreign.plan.clone(), foreign_band).rss_dbm(&tx, &rx);
                Ok(format!(
                    "foreign link at {foreign_band}: {with_surfaces:.1} dBm (deployment costs it {:.2} dB)",
                    clear - with_surfaces
                ))
            }
            "autodeploy" => {
                // §5 deployment automation: cheapest single surface
                // meeting a coverage goal.
                let [room, target] = args[..] else {
                    return Err(self.err("autodeploy <room> <median-snr-db>"));
                };
                let target: f64 = target.parse().map_err(|_| self.err("bad SNR target"))?;
                let scen = self.scenario()?.clone();
                let Some(room) = scen.plan.room(room).cloned() else {
                    return Err(self.err(format!("unknown room {room:?}")));
                };
                let anchors: Vec<crate::autodeploy::Anchor> = scen
                    .anchors
                    .iter()
                    .map(|(name, pose)| crate::autodeploy::Anchor {
                        name: name.clone(),
                        pose: *pose,
                    })
                    .collect();
                // Templates: the cheapest reflective programmable design
                // retargeted to the session band, plus a printed passive.
                let mut prog = designs::scatter_mimo();
                prog.pitch_m *= self.band.wavelength_m() / prog.band.wavelength_m();
                prog.band = self.band;
                let mut passive = designs::autos_ms();
                passive.pitch_m = self.band.wavelength_m() / 2.0;
                passive.band = self.band;
                passive.rows = 16;
                passive.cols = 16;
                let goal = crate::autodeploy::CoverageGoal {
                    points: room.sample_grid(4, 4, 1.2, 0.4),
                    validation_points: Some(room.sample_grid(6, 6, 1.2, 0.4)),
                    median_snr_db: target,
                };
                match crate::autodeploy::plan_deployment(
                    &scen.plan,
                    scen.ap_pose.position,
                    &anchors,
                    &[prog, passive],
                    &goal,
                ) {
                    Some(plan) => Ok(format!(
                        "deploy {} {}×{} at {} → predicted median {:.1} dB for ${:.0}",
                        plan.spec.model,
                        plan.spec.rows,
                        plan.spec.cols,
                        plan.anchor,
                        plan.median_snr_db,
                        plan.cost_usd
                    )),
                    None => Ok("goal not reachable with a single surface ≤64×64".into()),
                }
            }
            "telemetry" => {
                let os = self.os_mut()?;
                Ok(os.telemetry().to_string())
            }
            "campus" => {
                // Campus-scale sharded kernel demo: one zone per building,
                // per-building coverage services, a street walker crossing
                // zone boundaries. Aggregates land under `kernel.shard.*`
                // when metrics are on (see `surfosd --metrics-json`).
                let buildings: usize = args
                    .first()
                    .map(|s| s.parse().map_err(|_| self.err("bad building count")))
                    .transpose()?
                    .unwrap_or(2);
                let steps: usize = args
                    .get(1)
                    .map(|s| s.parse().map_err(|_| self.err("bad step count")))
                    .transpose()?
                    .unwrap_or(2);
                if buildings == 0 || buildings > 16 {
                    return Err(self.err("campus <buildings 1..=16> [steps]"));
                }
                let demo = crate::shard::demo_campus(buildings);
                let mut kernel = demo.kernel;
                let (mut granted, mut rejected) = (0, 0);
                for _ in 0..steps {
                    let r = kernel.step(100);
                    granted += r.granted.len();
                    rejected += r.rejected.len();
                }
                // A replay window long enough for the street walker to
                // cross at least one zone boundary.
                for _ in 0..60 {
                    kernel.replay_tick(500);
                }
                let cs = kernel.cache_stats();
                Ok(format!(
                    "campus: {buildings} buildings / {} shards, {} walls\n\
                     services: {granted} granted, {rejected} rejected; {} walker handoffs\n\
                     lincache: {} hits, {} misses, {} refreshes\n\
                     {}",
                    kernel.shard_count(),
                    demo.walls,
                    kernel.handoffs(),
                    cs.hits,
                    cs.misses,
                    cs.refreshes,
                    kernel.telemetry()
                ))
            }
            "metrics" => match args.first().copied() {
                // Observability control + inspection: spans/counters are
                // only collected between `metrics on` and `metrics off`.
                Some("on") => {
                    surfos_obs::set_enabled(true);
                    Ok("metrics collection enabled".into())
                }
                Some("off") => {
                    surfos_obs::set_enabled(false);
                    Ok("metrics collection disabled".into())
                }
                Some("json") => Ok(crate::telemetry::metrics_snapshot().to_json()),
                None => Ok(crate::telemetry::metrics_snapshot().render()),
                Some(other) => Err(self.err(format!("metrics [on|off|json], not {other:?}"))),
            },
            "top" => {
                if !surfos_obs::enabled() {
                    return Err(self.err("metrics are off (use `metrics on` first)"));
                }
                let now = std::time::Instant::now();
                let snap = surfos_obs::snapshot();
                let out = match self.top_baseline.take() {
                    None => "top: baseline captured; run `top` again for rates".into(),
                    Some((t0, prev)) => render_top(&prev, &snap, now - t0),
                };
                self.top_baseline = Some((now, snap));
                Ok(out)
            }
            "tasks" => {
                let os = self.os_mut()?;
                let lines: Vec<String> = os
                    .orchestrator()
                    .tasks
                    .all()
                    .iter()
                    .map(|t| format!("task {} [{:?}] {}", t.id, t.state, t.request))
                    .collect();
                Ok(if lines.is_empty() {
                    "no tasks".into()
                } else {
                    lines.join("\n")
                })
            }
            "help" => Ok(
                "commands: scenario band designs anchors deploy ap client tag say \
                          request step measure budget diagnose heatmap crossband autodeploy \
                          campus telemetry metrics top tasks help"
                    .into(),
            ),
            other => Err(self.err(format!("unknown command {other:?} (try `help`)"))),
        }
    }

    /// Runs a whole script; stops at the first error.
    pub fn run_script(&mut self, script: &str) -> Result<String, ShellError> {
        let mut out = Vec::new();
        for line in script.lines() {
            let result = self.execute(line)?;
            if !result.is_empty() {
                out.push(result);
            }
        }
        Ok(out.join("\n"))
    }
}

/// Renders the `top` table: counter and span-count deltas between two
/// snapshots, as rates over the elapsed window. Labeled series
/// (`kernel.steps{shard=2}`) sort directly under their flat total, so the
/// per-shard breakdown reads as an indented group.
fn render_top(
    prev: &surfos_obs::Snapshot,
    cur: &surfos_obs::Snapshot,
    window: std::time::Duration,
) -> String {
    let secs = window.as_secs_f64().max(1e-9);
    let mut rows: Vec<(&str, u64)> = Vec::new();
    for (key, &now) in &cur.counters {
        let before = prev.counters.get(key).copied().unwrap_or(0);
        let delta = now.saturating_sub(before);
        if delta > 0 {
            rows.push((key, delta));
        }
    }
    for (key, span) in &cur.spans {
        let before = prev.spans.get(key).map(|s| s.count).unwrap_or(0);
        let delta = span.count.saturating_sub(before);
        if delta > 0 {
            rows.push((key, delta));
        }
    }
    if rows.is_empty() {
        return format!("top: no activity in the last {secs:.2}s window");
    }
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = format!(
        "top: {secs:.2}s window\n{:<44} {:>10} {:>12}",
        "key", "delta", "rate"
    );
    for (key, delta) in rows {
        // Indent labeled breakdowns under their flat total.
        let display = if surfos_obs::label_body(key).is_some() {
            format!("  {key}")
        } else {
            key.to_string()
        };
        out.push_str(&format!(
            "\n{display:<44} {delta:>10} {:>10.1}/s",
            delta as f64 / secs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "
# boot the apartment
scenario apartment
band 28ghz
deploy wall0 scattermimo bedroom-north
ap ap0 aim bedroom-north
client laptop 6.5 1.5 1.2
request coverage bedroom 25
step 10 2
budget ap0 laptop
telemetry
";

    #[test]
    fn script_runs_end_to_end() {
        let mut shell = Shell::new();
        let out = shell.run_script(SCRIPT).expect("script runs");
        assert!(out.contains("scenario apartment loaded"));
        assert!(out.contains("deployed wall0"));
        assert!(out.contains("task 0 admitted"));
        assert!(out.contains("SNR"));
        assert!(out.contains("steps=2"));
    }

    #[test]
    fn say_creates_tasks() {
        let mut shell = Shell::new();
        shell.run_script(
            "scenario apartment\ndeploy wall0 scattermimo bedroom-north\nap ap0\nclient laptop 6.5 1.5 1.2",
        )
        .unwrap();
        let out = shell
            .execute("say I want to watch a movie on my laptop")
            .unwrap();
        assert!(out.contains("enhance_link(\"laptop\""), "{out}");
    }

    #[test]
    fn diagnose_and_heatmap_render() {
        let mut shell = Shell::new();
        shell.run_script(
            "scenario apartment\ndeploy wall0 scattermimo bedroom-north\nap ap0 aim bedroom-north\nclient laptop 6.5 1.5 1.2\nrequest coverage bedroom 25\nstep 10 2",
        )
        .unwrap();
        let d = shell.execute("diagnose ap0 laptop").unwrap();
        assert!(d.contains("surface:wall0"), "{d}");
        let h = shell.execute("heatmap bedroom").unwrap();
        assert!(h.contains("median SNR"), "{h}");
    }

    #[test]
    fn heatmap_without_access_point_is_an_error() {
        let mut shell = Shell::new();
        shell.execute("scenario apartment").unwrap();
        let err = shell.execute("heatmap bedroom").unwrap_err();
        assert_eq!(err.what, "no access point registered");
    }

    #[test]
    fn campus_reports_shards_grants_and_handoffs() {
        let mut shell = Shell::new();
        let out = shell.execute("campus 2 1").unwrap();
        assert!(out.contains("2 buildings / 2 shards"), "{out}");
        assert!(out.contains("2 granted, 0 rejected"), "{out}");
        assert!(out.contains("walker handoffs"), "{out}");
        assert!(out.contains("lincache:"), "{out}");
        assert!(shell.execute("campus 0").is_err());
        assert!(shell.execute("campus nope").is_err());
    }

    #[test]
    fn errors_identify_the_line() {
        let mut shell = Shell::new();
        let err = shell
            .run_script("scenario apartment\nfrobnicate\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.what.contains("frobnicate"));
    }

    #[test]
    fn deploy_requires_scenario() {
        let mut shell = Shell::new();
        let err = shell
            .execute("deploy a scattermimo bedroom-north")
            .unwrap_err();
        assert!(err.what.contains("no scenario"));
    }

    #[test]
    fn unknown_design_and_anchor_rejected() {
        let mut shell = Shell::new();
        shell.execute("scenario apartment").unwrap();
        assert!(shell
            .execute("deploy a warpdrive bedroom-north")
            .unwrap_err()
            .what
            .contains("unknown design"));
        assert!(shell
            .execute("deploy a scattermimo garage")
            .unwrap_err()
            .what
            .contains("unknown anchor"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let mut shell = Shell::new();
        assert_eq!(shell.execute("# nothing").unwrap(), "");
        assert_eq!(shell.execute("   ").unwrap(), "");
    }

    #[test]
    fn designs_and_anchors_listing() {
        let mut shell = Shell::new();
        shell.execute("scenario apartment").unwrap();
        let d = shell.execute("designs").unwrap();
        assert!(d.contains("AutoMS") && d.contains("mmWall"));
        let a = shell.execute("anchors").unwrap();
        assert!(a.contains("bedroom-north") && a.contains("living-wall"));
    }

    #[test]
    fn band_locked_after_deployment() {
        let mut shell = Shell::new();
        shell
            .run_script("scenario apartment\ndeploy wall0 scattermimo bedroom-north")
            .unwrap();
        assert!(shell
            .execute("band 60ghz")
            .unwrap_err()
            .what
            .contains("before"));
    }

    #[test]
    fn crossband_command_reports_interference() {
        let mut shell = Shell::new();
        shell
            .run_script(
                "scenario apartment
band 2.4ghz
deploy laia0 laia living-wall
ap ap0
client laptop 3.0 3.0 1.2",
            )
            .unwrap();
        let out = shell.execute("crossband 3.5ghz ap0 laptop").unwrap();
        assert!(out.contains("deployment costs it"), "{out}");
    }

    #[test]
    fn autodeploy_command_plans() {
        let mut shell = Shell::new();
        shell.execute("scenario apartment").unwrap();
        let out = shell.execute("autodeploy bedroom 15").unwrap();
        assert!(
            out.contains("deploy ") && out.contains("bedroom-north"),
            "{out}"
        );
    }

    #[test]
    fn metrics_command_toggles_and_renders() {
        let _obs = crate::obs_exclusive();
        let mut shell = Shell::new();
        assert!(shell.execute("metrics on").unwrap().contains("enabled"));
        shell
            .run_script(
                "scenario apartment\ndeploy wall0 scattermimo bedroom-north\nap ap0\nclient laptop 6.5 1.5 1.2\nrequest coverage bedroom 25\nstep 10 1",
            )
            .unwrap();
        let report = shell.execute("metrics").unwrap();
        assert!(shell.execute("metrics off").unwrap().contains("disabled"));
        assert!(report.contains("kernel.steps"), "{report}");
        let json = shell.execute("metrics json").unwrap();
        assert!(json.starts_with('{'), "{json}");
        assert!(shell.execute("metrics bogus").is_err());
    }

    #[test]
    fn top_renders_labeled_rate_deltas() {
        let mut prev = surfos_obs::Snapshot::default();
        prev.counters.insert("kernel.steps".into(), 10);
        let mut cur = surfos_obs::Snapshot::default();
        cur.counters.insert("kernel.steps".into(), 30);
        cur.counters.insert("kernel.steps{shard=1}".into(), 20);
        let out = render_top(&prev, &cur, std::time::Duration::from_secs(2));
        assert!(out.contains("kernel.steps"), "{out}");
        // Labeled breakdown indents under the flat total.
        assert!(out.contains("  kernel.steps{shard=1}"), "{out}");
        assert!(out.contains("10.0/s"), "{out}");
        // Identical snapshots: nothing moved.
        let idle = render_top(&cur, &cur, std::time::Duration::from_secs(1));
        assert!(idle.contains("no activity"), "{idle}");
    }

    #[test]
    fn top_captures_baseline_then_reports() {
        let _obs = crate::obs_exclusive();
        let mut shell = Shell::new();
        shell.execute("metrics on").unwrap();
        let first = shell.execute("top").unwrap();
        assert!(first.contains("baseline"), "{first}");
        surfos_obs::add("shell.top.probe", 5);
        let second = shell.execute("top").unwrap();
        assert!(second.contains("shell.top.probe"), "{second}");
    }

    #[test]
    fn passive_design_deploys_too() {
        let mut shell = Shell::new();
        shell.execute("scenario apartment").unwrap();
        let out = shell.execute("deploy m automs bedroom-north").unwrap();
        assert!(out.contains("AutoMS"), "{out}");
    }
}
