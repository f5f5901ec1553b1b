//! Correctness gates. Any failed gate fails the run.

use crate::client::Conn;
use crate::mix::Mix;
use iiscope::chaos::fnv64;
use iiscope::subsystems::netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope::subsystems::types::{Country, SeedFork, SimTime};
use iiscope::subsystems::wire::http::RequestCtx;
use iiscope::subsystems::wire::{Handler, Request};
use iiscope::World;
use std::net::SocketAddr;
use std::path::Path;

/// The committed paper-scale seed-42 report (`repro`'s standard output).
const ORACLE: &str = "docs/report_seed42.txt";

/// Where report digests of earlier runs are kept, one file per seed.
const DIGEST_DIR: &str = ".perfbench/digests";

/// Checks a rendered report. At seed 42 it must equal the committed
/// oracle byte for byte; at any seed its digest must equal the digest
/// every earlier run of that seed recorded (the first run records it).
/// Every pass of `paper_study` checks against the record, so the report
/// is also checked across passes on fresh builds of the world.
pub fn report(seed: u64, report: &str) -> Result<(), String> {
    let printed = format!("{report}\n");
    if seed == 42 {
        let oracle =
            std::fs::read_to_string(ORACLE).map_err(|e| format!("cannot read {ORACLE}: {e}"))?;
        if printed != oracle {
            return Err(format!("seed-42 report differs from {ORACLE}"));
        }
    }
    let digest = format!("{:016x}\n", fnv64(printed.as_bytes()));
    let path = Path::new(DIGEST_DIR).join(format!("seed-{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == digest => Ok(()),
        Ok(recorded) => Err(format!(
            "report digest {} differs from {} recorded by an earlier run of seed {seed}",
            digest.trim(),
            recorded.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(DIGEST_DIR).map_err(|e| format!("{DIGEST_DIR}: {e}"))?;
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &digest)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

/// The request context the server gives an external client.
pub fn socket_ctx(vantage: Country, now: SimTime) -> RequestCtx {
    RequestCtx {
        peer: PeerInfo {
            addr: HostAddr {
                ip: std::net::Ipv4Addr::LOCALHOST,
                asn: AsnId(64512),
                asn_kind: AsnKind::Eyeball,
                country: vantage,
            },
            opened_at: now,
            link: SeedFork::new(0),
        },
        now,
    }
}

/// Fetches every distinct target of `mix` over one socket and compares
/// the bytes with an in-process render on the world's uncached router.
pub fn socket_parity(
    world: &World,
    addr: SocketAddr,
    mix: &Mix,
    ctx: &RequestCtx,
) -> Result<usize, String> {
    let oracle = world.serve_router_uncached();
    let mut conn = Conn::open(addr).map_err(|e| format!("parity connect: {e}"))?;
    for (target, wire) in mix.targets.iter().zip(&mix.wires) {
        let got = conn
            .fetch_raw(wire)
            .map_err(|e| format!("parity fetch {target}: {e}"))?;
        let want = oracle.handle(&Request::get(target.clone()), ctx).encode();
        if got != want[..] {
            return Err(format!(
                "socket bytes for {target} differ from the in-process render \
                 ({} vs {} bytes)",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(mix.targets.len())
}
