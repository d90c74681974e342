//! A replicated key-value store on top of ICC atomic broadcast — the
//! state-machine-replication application the paper motivates (§1), with
//! a Byzantine party in the mix.
//!
//! Thirteen parties (the Internet Computer's small-subnet size), one of
//! which equivocates whenever it proposes. Clients submit `set`/`del`
//! commands; every honest replica applies the committed sequence to its
//! own [`KvStore`] and all end up with bit-identical state digests.
//!
//! ```text
//! cargo run --release -p icc-examples --bin kv_store
//! ```

use icc_core::cluster::ClusterBuilder;
use icc_core::replica::{KvStore, Replica};
use icc_core::Behavior;
use icc_gossip::icc0_cluster;
use icc_sim::delay::InterDcDelay;
use icc_types::{Command, NodeIndex, SimDuration, SimTime};

fn main() {
    let n = 13;
    let mut behaviors = vec![Behavior::Honest; n];
    behaviors[5] = Behavior::Equivocate;

    let mut cluster = icc0_cluster(
        ClusterBuilder::new(n)
            .seed(11)
            .network(InterDcDelay::internet_like(n, 3))
            .protocol_delays(SimDuration::from_millis(200), SimDuration::ZERO)
            .behaviors(behaviors),
    );

    // A little client session: writes, an overwrite, a delete.
    let session: Vec<Command> = vec![
        KvStore::set_command("user:1", "alice"),
        KvStore::set_command("user:2", "bob"),
        KvStore::set_command("balance:alice", "100"),
        KvStore::set_command("balance:bob", "250"),
        KvStore::set_command("balance:alice", "85"),
        KvStore::del_command("user:2"),
        KvStore::set_command("user:3", "carol"),
    ];
    for (i, cmd) in session.into_iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(100 * i as u64);
        for node in 0..n {
            cluster
                .sim
                .schedule_external(at, NodeIndex::new(node as u32), cmd.clone());
        }
    }

    cluster.run_for(SimDuration::from_secs(5));
    cluster.assert_safety();

    // Drive one replica per honest party from its committed chain.
    let mut digests = Vec::new();
    for &node in &cluster.honest_nodes() {
        let mut replica = Replica::new(KvStore::new());
        for o in cluster.events_of(node) {
            replica.on_event(&o.output);
        }
        digests.push((node, replica.state_digest(), replica.applied_commands()));
        if node == 0 {
            let kv = replica.machine();
            println!("replica 0 final state:");
            for key in ["user:1", "user:2", "user:3", "balance:alice", "balance:bob"] {
                println!("  {key} = {:?}", kv.get(key));
            }
            println!("  ({} keys total)\n", kv.len());
        }
    }

    let reference = digests[0].1;
    for (node, digest, applied) in &digests {
        assert_eq!(*digest, reference, "replica {node} diverged!");
        println!("replica {node:>2}: applied {applied} commands, state digest {digest}");
    }
    println!(
        "\nall {} honest replicas reached identical state despite P5 equivocating.",
        digests.len()
    );
}
