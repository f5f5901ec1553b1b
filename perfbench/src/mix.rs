//! Request mixes and seeded target schedules.

use iiscope::subsystems::honeyapp::HONEY_PACKAGE;
use iiscope::subsystems::playstore::ChartKind;
use iiscope::subsystems::types::{IipId, SeedFork};
use iiscope::subsystems::wire::Request;
use iiscope::World;
use rand::Rng;

/// The affiliate app `repro --load` milks walls as.
const AFFILIATE: &str = "com.mobvantage.cashforapps";

/// A weighted set of GET targets with their encoded requests.
pub struct Mix {
    /// Request targets (path + query), distinct.
    pub targets: Vec<String>,
    /// Relative selection weight per target.
    pub weights: Vec<u32>,
    /// Encoded request per target.
    pub wires: Vec<Vec<u8>>,
}

impl Mix {
    fn new(entries: Vec<(String, u32)>) -> Mix {
        let (targets, weights): (Vec<String>, Vec<u32>) = entries.into_iter().unzip();
        let wires = targets
            .iter()
            .map(|t| Request::get(t.clone()).encode().to_vec())
            .collect();
        Mix {
            targets,
            weights,
            wires,
        }
    }

    /// `n` target indices drawn by weight from the stream `fork`.
    pub fn picks(&self, fork: SeedFork, n: usize) -> Vec<usize> {
        let total: u64 = self.weights.iter().map(|&w| u64::from(w)).sum();
        let mut rng = fork.rng();
        (0..n)
            .map(|_| {
                let mut roll = rng.gen_range(0..total);
                for (i, &w) in self.weights.iter().enumerate() {
                    if roll < u64::from(w) {
                        return i;
                    }
                    roll -= u64::from(w);
                }
                self.weights.len() - 1
            })
            .collect()
    }

    /// Per-connection picks for a stage of `total` requests spread over
    /// `conns` connections, each connection on its own seeded stream.
    pub fn stage_picks(&self, fork: SeedFork, total: usize, conns: usize) -> Vec<Vec<usize>> {
        (0..conns)
            .map(|c| {
                let share = total / conns + usize::from(c < total % conns);
                self.picks(fork.fork_idx("conn", c as u64), share)
            })
            .collect()
    }
}

/// `repro --load`'s default mix (`wall=8,store=3,apk=1`): every wall,
/// the honey app and three planned apps' store pages, the top-free
/// chart and the honey APK — 13 targets.
pub fn hot(world: &World) -> Mix {
    let (wall_w, store_w, apk_w) = (8, 3, 1);
    let mut entries: Vec<(String, u32)> = IipId::ALL
        .iter()
        .map(|iip| {
            (
                format!("/wall/{}/offers?affiliate={AFFILIATE}", iip.slug()),
                wall_w,
            )
        })
        .collect();
    let packages = std::iter::once(HONEY_PACKAGE)
        .chain(world.plan.apps.iter().take(3).map(|a| a.package.as_str()));
    for pkg in packages {
        entries.push((format!("/store/apps/details?id={pkg}"), store_w));
    }
    entries.push((
        "/store/charts?chart=topselling_free&n=10".to_string(),
        store_w,
    ));
    entries.push((format!("/apk?id={HONEY_PACKAGE}"), apk_w));
    Mix::new(entries)
}

/// The catalog-wide mix, uniform over its targets: every store details
/// page and APK (honey, planned and baseline packages), every wall
/// swept over `cursor`/`limit`, and every chart at several sizes.
pub fn catalog(world: &World) -> Mix {
    let packages: Vec<&str> = std::iter::once(HONEY_PACKAGE)
        .chain(world.plan.apps.iter().map(|a| a.package.as_str()))
        .chain(world.plan.baseline.iter().map(|b| b.package.as_str()))
        .collect();
    let mut entries = Vec::new();
    for pkg in &packages {
        entries.push((format!("/store/apps/details?id={pkg}"), 1));
        entries.push((format!("/apk?id={pkg}"), 1));
    }
    for iip in IipId::ALL {
        for cursor in (0..300).step_by(5) {
            for limit in [10, 25, 50, 100] {
                entries.push((
                    format!(
                        "/wall/{}/offers?affiliate={AFFILIATE}&cursor={cursor}&limit={limit}",
                        iip.slug()
                    ),
                    1,
                ));
            }
        }
    }
    for kind in ChartKind::ALL {
        for n in [10, 25, 50, 100] {
            entries.push((format!("/store/charts?chart={}&n={n}", kind.id()), 1));
        }
    }
    Mix::new(entries)
}
