//! Walk a single request/response through each topology with event tracing
//! on, printing the hop-by-hop path — the de-duplication BrFusion performs
//! made visible, device by device.
//!
//! ```sh
//! cargo run -p nestless-bench --release --bin pathfinder
//! ```

use nestless::topology::{build, Config, CLIENT_PORT, SERVER_PORT};
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::StopCondition;
use simnet::{Payload, SimDuration, SockAddr};
use workloads::UdpEchoServer;

struct Once {
    dst: SockAddr,
}
impl Application for Once {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        let mut p = Payload::sized(256);
        p.tag = 7;
        api.send_udp(CLIENT_PORT, self.dst, p);
    }
    fn on_message(&mut self, _: Incoming, api: &mut AppApi<'_, '_>) {
        api.count("done", 1.0);
    }
}

fn main() {
    for config in Config::ALL {
        let mut tb = build(config, 1);
        tb.vmm.network_mut().set_tracing(true);
        let target = tb.target;
        let s = tb.install(
            "server",
            &tb.server.clone(),
            [SERVER_PORT],
            Box::new(UdpEchoServer),
        );
        let c = tb.install(
            "client",
            &tb.client.clone(),
            [CLIENT_PORT],
            Box::new(Once { dst: target }),
        );
        tb.start(&[s, c]);
        tb.vmm
            .network_mut()
            .run(StopCondition::For(SimDuration::millis(50)));

        println!(
            "== {:?} ({} hops) ==",
            config,
            tb.vmm.network().trace().len()
        );
        for e in tb.vmm.network().trace() {
            println!("  {:>10}  {:<22} {}", e.at.to_string(), e.device, e.what);
        }
        println!();
    }
}
