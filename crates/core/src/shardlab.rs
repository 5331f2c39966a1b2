//! The sharded facade: [`ShardedLabs`] is [`crate::RemoteNetworkLabs`]
//! with the single back end replaced by a [`Federation`] of
//! hash-partitioned route-server shards.
//!
//! Each site dials the shard that owns its principal on the federation's
//! consistent ring ([`Federation::shard_of_principal`]), so a supervisor
//! redial after a flap — or after a shard kill — lands on the owning
//! shard without any directory service. The federation polls inside
//! [`ShardedLabs::step`], which is where scheduled shard faults fire,
//! trunks get supervised, and killed shards auto-recover from their own
//! journals while their siblings keep serving.

use rnl_device::device::Device;
use rnl_net::time::{Duration, Instant};
use rnl_obs::lcg64;
use rnl_ris::{Dialer, Ris, RisError, Supervisor};
use rnl_server::shard::Federation;
use rnl_server::web::{self, Request, Response};
use rnl_tunnel::faults::ShardFaultPlan;
use rnl_tunnel::msg::RouterId;
use rnl_tunnel::transport::{mem_pair_perfect, ClosedTransport, Transport, TransportError};

use crate::{retry_wait, LabError, SiteId, DEFAULT_STEP};

/// One site dialing into the federation.
struct ShardSite {
    ris: Ris,
    supervisor: Supervisor,
    pc_name: String,
}

/// Dials the shard that owns this site's principal. A down shard
/// refuses the dial and the supervisor backs off — exactly the flap
/// path, reused for partial back-end failure.
struct FedDialer<'a> {
    fed: &'a mut Federation,
    pc_name: &'a str,
    seed: &'a mut u64,
}

impl Dialer for FedDialer<'_> {
    fn dial(&mut self, _now: Instant) -> Result<Box<dyn Transport>, TransportError> {
        let owner = self
            .fed
            .shard_of_principal(self.pc_name)
            .ok_or(TransportError::Closed)?;
        *self.seed = lcg64(*self.seed);
        let (ris_side, server_side) = mem_pair_perfect(*self.seed);
        match self.fed.attach_to(owner, Box::new(server_side)) {
            Ok(_) => Ok(Box::new(ris_side)),
            Err(_) => Err(TransportError::Closed),
        }
    }
}

/// The network cloud, scaled out: a shard federation plus sites.
pub struct ShardedLabs {
    fed: Federation,
    sites: Vec<ShardSite>,
    now: Instant,
    seed: u64,
}

impl ShardedLabs {
    /// A federation of `n` shards with per-shard in-memory journals,
    /// reservation enforcement off (the sharded experiments are not
    /// about the calendar), and a generous flap-grace window so killed
    /// shards re-adopt their sessions on recovery.
    pub fn new(n_shards: usize) -> ShardedLabs {
        let mut fed = Federation::new(n_shards, 0x5eed);
        fed.set_enforce_reservations(false);
        fed.set_grace_window(Duration::from_secs(60));
        // Journal replay failing here would mean a bug in an empty
        // snapshot; surface it loudly in debug, ignore in release.
        let enabled = fed.enable_mem_durability(Instant::EPOCH);
        debug_assert!(enabled.is_ok());
        ShardedLabs {
            fed,
            sites: Vec::new(),
            now: Instant::EPOCH,
            seed: 0x5eed_5eed,
        }
    }

    /// The virtual clock.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The federation itself (fault injection, metrics, placement).
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// Mutable federation access.
    pub fn federation_mut(&mut self) -> &mut Federation {
        &mut self.fed
    }

    /// The shard that owns a principal (site pc-name or design name).
    pub fn owner_of(&self, principal: &str) -> Option<usize> {
        self.fed.shard_of_principal(principal)
    }

    /// Add a site; its dials are routed to the shard owning `pc_name`.
    /// The first dial happens here; if the owning shard is down the
    /// site starts severed and the supervisor redials it.
    pub fn add_site(&mut self, pc_name: &str) -> SiteId {
        let now = self.now;
        let first: Box<dyn Transport> = {
            let mut dialer = FedDialer {
                fed: &mut self.fed,
                pc_name,
                seed: &mut self.seed,
            };
            match dialer.dial(now) {
                Ok(t) => t,
                Err(_) => Box::new(ClosedTransport),
            }
        };
        self.seed = lcg64(self.seed);
        let supervisor = Supervisor::new(self.seed, self.fed.obs(), &[("site", pc_name)]);
        self.sites.push(ShardSite {
            ris: Ris::new(pc_name, first),
            supervisor,
            pc_name: pc_name.to_string(),
        });
        SiteId(self.sites.len() - 1)
    }

    /// Plug a device into a site; returns the RIS-local id.
    pub fn add_device(
        &mut self,
        site: SiteId,
        device: Box<dyn Device>,
        description: &str,
    ) -> Result<u32, LabError> {
        let site = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        Ok(site.ris.add_device(device, description))
    }

    /// Join a site to the labs: run the registration handshake with
    /// the owning shard to completion and return the global ids
    /// assigned, in local-id order.
    pub fn join_labs(&mut self, site: SiteId) -> Result<Vec<RouterId>, LabError> {
        let index = site.0;
        if index >= self.sites.len() {
            return Err(LabError::UnknownSite(site));
        }
        let now = self.now;
        self.sites[index].ris.join_labs(now)?;
        for _ in 0..200 {
            self.step(DEFAULT_STEP)?;
            if self.sites[index].ris.registered() {
                break;
            }
        }
        let ris = &self.sites[index].ris;
        let mut ids = Vec::new();
        let mut local = 0;
        while let Some(id) = ris.router_id(local) {
            ids.push(id);
            local += 1;
        }
        Ok(ids)
    }

    /// Advance the virtual clock one step: supervise every site
    /// (redials go to the owning shard), poll the federation (faults
    /// fire, trunks pump, shards recover), and poll the sites again so
    /// shard replies land within the step.
    pub fn step(&mut self, dt: Duration) -> Result<(), LabError> {
        self.now += dt;
        let now = self.now;
        for site in &mut self.sites {
            let mut dialer = FedDialer {
                fed: &mut self.fed,
                pc_name: &site.pc_name,
                seed: &mut self.seed,
            };
            site.supervisor.tick(&mut site.ris, &mut dialer, now)?;
        }
        self.fed.poll(now);
        for site in &mut self.sites {
            match site.ris.poll(now) {
                Ok(()) | Err(RisError::Transport(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.fed.poll(now);
        Ok(())
    }

    /// Run the clock forward `d` in [`DEFAULT_STEP`] increments.
    pub fn run(&mut self, d: Duration) -> Result<(), LabError> {
        let steps = d.as_micros() / DEFAULT_STEP.as_micros();
        for _ in 0..steps.max(1) {
            self.step(DEFAULT_STEP)?;
        }
        Ok(())
    }

    /// One console line to a device, answered locally by the RIS.
    pub fn console(&mut self, site: SiteId, local: u32, line: &str) -> Result<String, LabError> {
        let now = self.now;
        let s = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        let device = s.ris.device_mut(local).ok_or(LabError::UnknownSite(site))?;
        Ok(device.console(line, now))
    }

    /// The global id of a site's local device.
    pub fn router_id(&self, site: SiteId, local: u32) -> Option<RouterId> {
        self.sites.get(site.0).and_then(|s| s.ris.router_id(local))
    }

    /// One typed web-services call through the sharded front tier.
    pub fn api(&mut self, request: Request) -> Response {
        let now = self.now;
        web::handle_sharded(&mut self.fed, request, now)
    }

    /// One typed call with a client-side retry budget: any structured
    /// retryable error (`overloaded`, `shard-down`) carrying a
    /// `retry_after_us` hint is retried after waiting the hint out on
    /// the virtual clock (capped at 1 s), at most `budget` times.
    pub fn api_with_retry(&mut self, request: Request, budget: u32) -> Result<Response, LabError> {
        let mut last = self.api(request.clone());
        for _ in 0..budget {
            let Some(wait) = retry_wait(&last) else { break };
            self.run(wait)?;
            last = self.api(request.clone());
        }
        Ok(last)
    }

    /// Save a design on its home shard (where the front tier routes
    /// every design-keyed request for it).
    pub fn save_design(&mut self, design: rnl_server::design::Design) -> Result<(), LabError> {
        let home = self
            .fed
            .shard_of_principal(&design.name)
            .ok_or(LabError::UnknownSite(SiteId(0)))?;
        self.fed.server_mut(home)?.save_design(design);
        Ok(())
    }

    /// Deploy a saved design through the federation; spans shards when
    /// the design's devices do. Returns the federation deployment id.
    pub fn deploy(&mut self, user: &str, design: &str) -> Result<u64, LabError> {
        let now = self.now;
        Ok(self.fed.deploy_spanning(user, design, false, now)?)
    }

    /// Tear a federated deployment down across all involved shards.
    pub fn teardown(&mut self, deployment: u64) -> Result<bool, LabError> {
        let now = self.now;
        Ok(self.fed.teardown_fed(deployment, now)?)
    }

    // -- fault injection ----------------------------------------------

    /// Kill a shard now; with `down_for` set it auto-recovers from its
    /// journal once the clock passes the window.
    pub fn kill_shard(&mut self, shard: usize, down_for: Option<Duration>) {
        let now = self.now;
        self.fed.kill_shard(shard, down_for, now);
    }

    /// Partition the trunk between two shards for `len`.
    pub fn partition_trunk(&mut self, a: usize, b: usize, len: Duration) {
        let now = self.now;
        self.fed.partition_trunk(a, b, len, now);
    }

    /// Install a seeded shard-fault schedule (fires inside
    /// [`ShardedLabs::step`]).
    pub fn set_fault_plan(&mut self, plan: ShardFaultPlan) {
        self.fed.set_fault_plan(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_device::host::Host;
    use rnl_server::design::Design;
    use rnl_tunnel::msg::PortId;

    fn host(name: &str, num: u32, ip: &str) -> Box<Host> {
        let mut h = Host::new(name, num);
        h.set_ip(ip.parse().expect("test ip"));
        Box::new(h)
    }

    /// Two sites owned by different shards, a spanning design, and a
    /// ping across the trunk — the whole stack through the facade.
    fn sharded_pair() -> (ShardedLabs, SiteId, SiteId, u64) {
        let mut labs = ShardedLabs::new(2);
        // Pick pc-names the ring places on different shards.
        let names: Vec<String> = (0..64).map(|i| format!("pc-{i}")).collect();
        let a = names
            .iter()
            .find(|n| labs.owner_of(n) == Some(0))
            .expect("a name on shard 0")
            .clone();
        let b = names
            .iter()
            .find(|n| labs.owner_of(n) == Some(1))
            .expect("a name on shard 1")
            .clone();
        let sa = labs.add_site(&a);
        let sb = labs.add_site(&b);
        labs.add_device(sa, host("ha", 1, "10.0.0.1/24"), "ha")
            .expect("site a");
        labs.add_device(sb, host("hb", 2, "10.0.0.2/24"), "hb")
            .expect("site b");
        let ra = labs.join_labs(sa).expect("join a")[0];
        let rb = labs.join_labs(sb).expect("join b")[0];
        assert_ne!(
            rnl_server::shard::shard_of_router(ra),
            rnl_server::shard::shard_of_router(rb)
        );
        let mut d = Design::new("span");
        d.add_device(ra);
        d.add_device(rb);
        d.connect((ra, PortId(0)), (rb, PortId(0))).expect("link");
        labs.save_design(d).expect("save");
        let id = labs.deploy("alice", "span").expect("deploy");
        (labs, sa, sb, id)
    }

    #[test]
    fn facade_cross_shard_ping() {
        let (mut labs, sa, _sb, _) = sharded_pair();
        labs.console(sa, 0, "ping 10.0.0.2 count 3").expect("send");
        labs.run(Duration::from_secs(5)).expect("run");
        let out = labs.console(sa, 0, "show ping").expect("show");
        assert!(out.contains("3 received"), "facade cross-shard: {out}");
    }

    #[test]
    fn facade_retries_shard_down_to_success() {
        let (mut labs, _sa, _sb, _) = sharded_pair();
        let victim = labs.owner_of("span").expect("home shard");
        labs.kill_shard(victim, Some(Duration::from_millis(200)));
        let r = labs
            .api_with_retry(
                Request::AnalyzeDesign {
                    design: "span".into(),
                },
                50,
            )
            .expect("retry loop");
        assert!(
            !matches!(r, Response::Error { .. }),
            "shard-down should heal within the retry budget: {r:?}"
        );
    }

    #[test]
    fn facade_teardown_spans_shards() {
        let (mut labs, _sa, _sb, id) = sharded_pair();
        assert!(labs.teardown(id).expect("teardown"));
        assert!(labs.federation().fed_deployment(id).is_none());
    }
}
