//! Client-command ingress (§1: inputs reach any party, incrementally):
//! the commands a replica holds until they commit, and the rules by
//! which a command given to one replica reaches the leader that
//! proposes it (`DESIGN.md` §5l).
//!
//! * **Send to the leader that proposes soonest, and its backup.** A
//!   client's command of at most [`FORWARD_MAX_BYTES`] is sent, once,
//!   unless the notarized chain holds it already: to the rank-0 party of
//!   the current round while that party's window `Δprop(0)` — the
//!   governor ε, `delays` module — is open, otherwise to the rank-0 party
//!   of the round after, as soon as that round's beacon is known. The
//!   same batch goes to that round's rank-1 party, which proposes it if
//!   rank 0 is crashed or disqualified (§3.4) — unless this replica is
//!   that party; and nothing is sent when this replica leads the round
//!   itself. When the round it was sent for has ended without it in that
//!   chain, it is sent to a later round's two parties — the new round's
//!   own, at its entry, if its window is open — never for a round more
//!   than [`FORWARD_ROUNDS`] past the first it was sent for. Larger
//!   commands wait for their own replica's turn: a leader carries the
//!   bytes in its block anyway, and sending them to it first doubles
//!   what the wire carries.
//! * **Receive.** A batch — as the round's rank-0 or rank-1 party alike
//!   — is accepted only for the receiver's current or next round; peer
//!   commands are held up to [`PEER_BLOCKS`] blocks'
//!   worth of the replica's [`BlockPolicy`], the rest counted and
//!   dropped. A command leaves the pool when a committed block names its
//!   digest.
//! * **Exactly once across a catch-up.** A package that jumps over
//!   rounds whose blocks the replica does not hold leaves commands it
//!   never saw committed out of its dedup set. Then the peer commands it
//!   holds are dropped, it never proposes its clients' commands — it
//!   sends them to leaders afresh, which know what committed, and drops
//!   those that do not commit within the window — and for
//!   [`FORWARD_ROUNDS`] rounds past the package it refuses forwarded
//!   batches ([`CommandPool::gap`]).

// Peer batches are read here: nothing a peer sends may panic it.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::indexing_slicing)
)]

use crate::consensus::BlockPolicy;
use icc_crypto::Hash256;
use icc_types::{Command, Round};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Client commands of at most this many bytes are sent to the next
/// leader; larger ones are proposed by the replica that received them.
pub const FORWARD_MAX_BYTES: usize = 1 << 10;

/// The retry window, in rounds: a command is never sent for a round more
/// than this past the first round it was sent for. A replica whose
/// catch-up left a hole refuses forwarded batches for as many rounds
/// past the package — the window is what makes that refusal enough.
pub const FORWARD_ROUNDS: u64 = 8;

/// Peer-forwarded commands held at once, in blocks' worth of the
/// replica's [`BlockPolicy`] (count and bytes).
pub const PEER_BLOCKS: usize = 2;

icc_telemetry::counter_set! {
    /// Per-replica ingress counters, surfaced through
    /// [`ConsensusCore::ingress_stats`](crate::ConsensusCore::ingress_stats)
    /// and merged over a cluster by
    /// [`Cluster::metrics_summary`](crate::cluster::Cluster::metrics_summary).
    pub struct IngressStats {
        /// Client commands sent to a leader, first time.
        pub forwarded: u64,
        /// Client commands sent again, to a later leader, after the
        /// round they were sent for ended without them in the notarized
        /// chain.
        pub reforwarded: u64,
        /// Client commands sent — first time or again — to the leader of
        /// the round in progress, inside its window.
        pub sent_to_current: u64,
        /// Copies of client commands sent to the rank-1 party of the
        /// round they were sent for, beside its leader (each send counted
        /// once in `forwarded` or `reforwarded`).
        pub sent_to_backup: u64,
        /// Forwarded commands taken into this replica's pool.
        pub received: u64,
        /// Forwarded batches for this replica's current round that came
        /// after it had proposed in it: they missed that round's block.
        pub late_batches: u64,
        /// Forwarded batches refused as being for neither this replica's
        /// current round nor the next: one of the two parties is behind.
        pub refused_behind: u64,
        /// Forwarded batches refused in the rounds after a catch-up that
        /// left a hole in the committed set.
        pub refused_gap: u64,
        /// Forwarded commands dropped: the peer-command bound was full,
        /// or the command was above the forwarding cutoff.
        pub dropped_bound: u64,
        /// Commands dropped for a catch-up that left a hole in the
        /// committed set: peer-forwarded ones at the jump; this
        /// replica's clients' ones at the jump if above the cutoff, else
        /// when their window closes without a commit.
        pub dropped_at_gap: u64,
    }
}

impl fmt::Display for IngressStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{value} {}", name.replace('_', " "))?;
        }
        Ok(())
    }
}

impl IngressStats {
    /// Counts one command sent for `target` to `copies` parties, the
    /// sender being in `current`.
    fn count_send(&mut self, target: Round, current: Round, copies: usize) {
        if target == current {
            self.sent_to_current += 1;
        }
        self.sent_to_backup += copies.saturating_sub(1) as u64;
    }
}

/// Where a held command came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A client of this replica.
    Client,
    /// A peer that forwarded it.
    Peer,
    /// A client of this replica, held when a catch-up jumped over rounds
    /// whose commands this replica does not know: it may be committed
    /// already. Never proposed here — sent to other leaders, which know,
    /// and dropped when its window closes.
    HeldAcrossGap,
}

#[derive(Debug)]
struct Held {
    cmd: Command,
    /// Arrival order.
    seq: u64,
    origin: Origin,
    /// The first and the latest round a client command was sent for.
    sent_for: Option<(Round, Round)>,
}

/// What the forwarding pass does with a held command.
#[derive(Debug, PartialEq, Eq)]
enum Due {
    /// Nothing, this round.
    No,
    /// Send it; the round its window counts from.
    Send(Round),
    /// Drop it: held across a gap, and its window closed uncommitted.
    Expired,
}

/// Whether `held` is due to the leader of `target` — `current`, the
/// round this replica is in, or the one after (`to_self` when it leads
/// `target`): a client's command within the size cutoff, not in the
/// notarized chain (`in_chain`), never sent, or sent for a round that
/// has ended and no more than [`FORWARD_ROUNDS`] before `target` was its
/// first.
fn due(held: &Held, target: Round, current: Round, in_chain: bool, to_self: bool) -> Due {
    let parked = held.origin == Origin::HeldAcrossGap;
    if held.origin == Origin::Peer || held.cmd.len() > FORWARD_MAX_BYTES || in_chain {
        return Due::No;
    }
    match held.sent_for {
        // This replica does not propose a command it held across a gap.
        _ if parked && to_self => Due::No,
        None => Due::Send(target),
        // In flight: the round it was sent for has not ended.
        Some((_, last)) if last >= current => Due::No,
        Some((first, _)) if target.get() <= first.get() + FORWARD_ROUNDS => Due::Send(first),
        Some(_) if parked => Due::Expired,
        Some(_) => Due::No,
    }
}

/// The commands a replica holds until they commit, by digest, in
/// arrival order.
#[derive(Debug, Default)]
pub(crate) struct CommandPool {
    held: HashMap<Hash256, Held>,
    order: BTreeMap<u64, Hash256>,
    next_seq: u64,
    peer_count: usize,
    peer_bytes: usize,
    /// Forwarded batches for rounds up to here are refused.
    refuse_upto: Round,
    /// Survive [`clear`](Self::clear), like the core's telemetry.
    stats: IngressStats,
}

impl CommandPool {
    /// Number of commands held.
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }

    pub(crate) fn stats(&self) -> IngressStats {
        self.stats
    }

    /// Forgets every command (a crash); the counters stay.
    pub(crate) fn clear(&mut self) {
        *self = CommandPool {
            stats: self.stats,
            ..CommandPool::default()
        };
    }

    fn insert(&mut self, digest: Hash256, cmd: Command, origin: Origin) {
        if origin == Origin::Peer {
            self.peer_count += 1;
            self.peer_bytes += cmd.len();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert(seq, digest);
        let held = Held {
            cmd,
            seq,
            origin,
            sent_for: None,
        };
        self.held.insert(digest, held);
    }

    /// Takes a client's command; `false` if it is held already.
    pub(crate) fn submit(&mut self, cmd: Command, digest: Hash256) -> bool {
        if self.held.contains_key(&digest) {
            return false;
        }
        self.insert(digest, cmd, Origin::Client);
        true
    }

    /// Takes a batch a peer forwarded for the leader of `round`, this
    /// replica being in `current` and having `proposed` in it already or
    /// not. Commands already held or in `committed` are skipped.
    pub(crate) fn receive(
        &mut self,
        round: Round,
        current: Round,
        proposed: bool,
        commands: &[Command],
        committed: &HashSet<Hash256>,
        policy: &BlockPolicy,
    ) {
        if round != current && round != current.next() {
            self.stats.refused_behind += 1;
            return;
        }
        if round == current && proposed {
            self.stats.late_batches += 1;
        }
        if round <= self.refuse_upto {
            self.stats.refused_gap += 1;
            return;
        }
        let max_count = PEER_BLOCKS * policy.max_commands;
        let max_bytes = PEER_BLOCKS * policy.max_bytes;
        for cmd in commands {
            let digest = cmd.digest();
            if committed.contains(&digest) || self.held.contains_key(&digest) {
                continue;
            }
            if cmd.len() > FORWARD_MAX_BYTES
                || self.peer_count >= max_count
                || self.peer_bytes + cmd.len() > max_bytes
            {
                self.stats.dropped_bound += 1;
                continue;
            }
            self.insert(digest, cmd.clone(), Origin::Peer);
            self.stats.received += 1;
        }
    }

    /// Drops the command `digest` (it committed).
    pub(crate) fn remove(&mut self, digest: &Hash256) {
        let Some(held) = self.held.remove(digest) else {
            return;
        };
        self.order.remove(&held.seq);
        if held.origin == Origin::Peer {
            self.peer_count -= 1;
            self.peer_bytes -= held.cmd.len();
        }
    }

    /// The commands this replica may propose, in arrival order, with
    /// their digests.
    pub(crate) fn proposable(&self) -> impl Iterator<Item = (&Command, &Hash256)> {
        let held = self
            .order
            .values()
            .filter_map(|d| Some((self.held.get(d)?, d)));
        held.filter(|(h, _)| h.origin != Origin::HeldAcrossGap)
            .map(|(h, d)| (&h.cmd, d))
    }

    /// One forwarding pass, run at most twice per round: for `target` =
    /// `current` on entering it while its leader's window is open, and
    /// for the round after once that round's leader becomes known. The
    /// client commands due to the leader of `target` (see [`due`]), in
    /// arrival order, within one block's worth of `policy`, for
    /// `copies` parties: the leader and its rank-1 backup, or the leader
    /// alone. `in_chain` holds the commands of the chain ending at a
    /// notarized block of round `current − 1`, above the committed tip.
    /// When this replica leads `target` itself (`copies` = 0) nothing is
    /// returned, but the commands it will propose count as sent for
    /// `target`.
    pub(crate) fn due_for(
        &mut self,
        target: Round,
        current: Round,
        copies: usize,
        in_chain: &HashSet<Hash256>,
        policy: &BlockPolicy,
    ) -> Vec<Command> {
        let to_self = copies == 0;
        let mut batch = Vec::new();
        let mut bytes = 0;
        let mut expired = Vec::new();
        for digest in self.order.values() {
            let Some(held) = self.held.get_mut(digest) else {
                continue;
            };
            let first = match due(held, target, current, in_chain.contains(digest), to_self) {
                Due::No => continue,
                Due::Expired => {
                    expired.push(*digest);
                    continue;
                }
                Due::Send(first) => first,
            };
            if !to_self {
                if batch.len() >= policy.max_commands || bytes + held.cmd.len() > policy.max_bytes {
                    break;
                }
                bytes += held.cmd.len();
                batch.push(held.cmd.clone());
                if held.sent_for.is_some() {
                    self.stats.reforwarded += 1;
                } else {
                    self.stats.forwarded += 1;
                }
                self.stats.count_send(target, current, copies);
            }
            held.sent_for = Some((first, target));
        }
        for digest in expired {
            self.remove(&digest);
            self.stats.dropped_at_gap += 1;
        }
        batch
    }

    /// [`due_for`](Self::due_for) for the one client command `digest`
    /// just submitted, when the leader of `target` — `current` or the
    /// round after — is known already.
    pub(crate) fn send_new(
        &mut self,
        digest: &Hash256,
        target: Round,
        current: Round,
        copies: usize,
        in_chain: bool,
    ) -> Option<Command> {
        let to_self = copies == 0;
        let held = self.held.get_mut(digest)?;
        // Never sent, so the round it would be in flight for is moot.
        let Due::Send(first) = due(held, target, target, in_chain, to_self) else {
            return None;
        };
        held.sent_for = Some((first, target));
        if to_self {
            return None;
        }
        self.stats.forwarded += 1;
        self.stats.count_send(target, current, copies);
        Some(held.cmd.clone())
    }

    /// A catch-up to `package_round` skipped blocks this replica does
    /// not hold, so commands committed there are missing from its dedup
    /// set. Drops the peer commands; parks its clients' commands — never
    /// proposed here, sent to leaders afresh, dropped if their window
    /// closes uncommitted, or at once if they are too large to send —
    /// and refuses forwarded batches for the [`FORWARD_ROUNDS`] rounds
    /// past the package.
    pub(crate) fn gap(&mut self, package_round: Round) {
        self.refuse_after(package_round);
        let digests: Vec<Hash256> = self.order.values().copied().collect();
        for digest in digests {
            let Some(held) = self.held.get_mut(&digest) else {
                continue;
            };
            if held.origin == Origin::Peer || held.cmd.len() > FORWARD_MAX_BYTES {
                self.remove(&digest);
                self.stats.dropped_at_gap += 1;
            } else {
                held.origin = Origin::HeldAcrossGap;
                held.sent_for = None;
            }
        }
    }

    /// Refuses forwarded batches for the [`FORWARD_ROUNDS`] rounds past
    /// `round`.
    pub(crate) fn refuse_after(&mut self, round: Round) {
        let upto = Round::new(round.get().saturating_add(FORWARD_ROUNDS));
        self.refuse_upto = self.refuse_upto.max(upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(tag: u64, len: usize) -> Command {
        let mut bytes = tag.to_le_bytes().to_vec();
        bytes.resize(len.max(8), b'.');
        Command::new(bytes)
    }

    fn r(v: u64) -> Round {
        Round::new(v)
    }

    /// One peer forwards 10 000 commands: the pool holds its bound and
    /// counts the rest.
    #[test]
    fn peer_commands_stay_within_the_policy_bound() {
        let policy = BlockPolicy::default();
        let mut pool = CommandPool::default();
        let committed = HashSet::new();
        let batch: Vec<Command> = (0..10_000).map(|i| cmd(i, 64)).collect();
        for chunk in batch.chunks(500) {
            pool.receive(r(5), r(4), false, chunk, &committed, &policy);
        }
        let bound = PEER_BLOCKS * policy.max_commands;
        assert_eq!(pool.len(), bound);
        let s = pool.stats();
        assert_eq!(
            (s.received, s.dropped_bound),
            (bound as u64, 10_000 - bound as u64)
        );
        // What commits makes room again; a client's command is not bound.
        pool.remove(&batch[0].digest());
        let one = &batch[bound..=bound];
        pool.receive(r(5), r(4), false, one, &committed, &policy);
        assert_eq!(pool.len(), bound);
        assert!(pool.submit(cmd(20_000, 64), cmd(20_000, 64).digest()));
        assert_eq!(pool.len(), bound + 1);
    }

    #[test]
    fn batches_are_taken_for_the_current_or_next_round_only() {
        let policy = BlockPolicy::default();
        let mut pool = CommandPool::default();
        let none = HashSet::new();
        for (round, taken) in [(3, false), (4, true), (5, true), (6, false)] {
            pool.receive(r(round), r(4), false, &[cmd(round, 8)], &none, &policy);
            assert_eq!(pool.held.contains_key(&cmd(round, 8).digest()), taken);
        }
        assert_eq!(pool.stats().refused_behind, 2);
        // Oversized and committed commands are not taken.
        let committed = HashSet::from([cmd(7, 8).digest()]);
        let batch = [cmd(7, 8), cmd(8, FORWARD_MAX_BYTES + 1)];
        pool.receive(r(5), r(4), false, &batch, &committed, &policy);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().dropped_bound, 1);
    }

    /// A command is sent for the next round, waits while that round runs,
    /// is sent again only when it did not make the notarized chain, and
    /// never past its window; large commands are never sent.
    #[test]
    fn retries_follow_the_round_window() {
        let policy = BlockPolicy::default();
        let mut pool = CommandPool::default();
        let (small, large) = (cmd(1, 64), cmd(2, FORWARD_MAX_BYTES + 1));
        pool.submit(small.clone(), small.digest());
        pool.submit(large.clone(), large.digest());
        let (none, chain) = (HashSet::new(), HashSet::from([small.digest()]));
        // In the notarized chain already: not sent.
        assert!(pool.due_for(r(2), r(1), 1, &chain, &policy).is_empty());
        let sent = pool.due_for(r(2), r(1), 1, &none, &policy);
        assert_eq!(sent, std::slice::from_ref(&small));
        // Round 2 has not ended: in flight.
        assert!(pool.due_for(r(3), r(2), 1, &none, &policy).is_empty());
        // It made the chain: nothing to send.
        assert!(pool.due_for(r(4), r(3), 1, &chain, &policy).is_empty());
        // It did not: sent again, for every round up to the window.
        let mut sent = vec![];
        for current in 3..20 {
            if !pool
                .due_for(r(current + 1), r(current), 1, &none, &policy)
                .is_empty()
            {
                sent.push(current + 1);
            }
        }
        assert_eq!(sent, [4, 6, 8, 10]);
        let s = pool.stats();
        assert_eq!((s.forwarded, s.reforwarded), (1, 4));
        // A leader keeps its own commands: marked, not sent.
        let own = cmd(3, 64);
        pool.submit(own.clone(), own.digest());
        assert_eq!(pool.send_new(&own.digest(), r(21), r(20), 0, false), None);
        assert!(pool.due_for(r(22), r(21), 1, &none, &policy).is_empty());
    }

    /// A gap drops what peers sent and what cannot be sent; a client's
    /// small command is never proposed here, but sent again from scratch
    /// — even if its window had closed — and dropped when the new window
    /// closes without a commit.
    #[test]
    fn a_gap_drops_peer_commands_and_parks_client_ones() {
        let policy = BlockPolicy::default();
        let none = HashSet::new();
        let mut pool = CommandPool::default();
        let (own, large, peer) = (cmd(1, 64), cmd(2, FORWARD_MAX_BYTES + 1), cmd(3, 64));
        for c in [&own, &large] {
            pool.submit(c.clone(), c.digest());
        }
        assert_eq!(pool.due_for(r(6), r(5), 1, &none, &policy).len(), 1);
        pool.receive(r(5), r(5), false, &[peer], &none, &policy);
        pool.gap(r(40));
        assert_eq!((pool.len(), pool.stats().dropped_at_gap), (1, 2));
        assert_eq!(pool.proposable().count(), 0);
        // Leading the next round itself, it keeps the command back.
        assert!(pool.due_for(r(42), r(41), 0, &none, &policy).is_empty());
        let mut sent = vec![];
        for current in 42..60 {
            if !pool
                .due_for(r(current + 1), r(current), 1, &none, &policy)
                .is_empty()
            {
                sent.push(current + 1);
            }
        }
        assert_eq!(sent, [43, 45, 47, 49, 51]);
        assert_eq!((pool.len(), pool.stats().dropped_at_gap), (0, 3));
        // Batches are refused through round 40 + FORWARD_ROUNDS.
        let late = [cmd(4, 64)];
        pool.receive(r(48), r(47), false, &late, &none, &policy);
        pool.receive(r(49), r(48), false, &late, &none, &policy);
        assert_eq!((pool.stats().refused_gap, pool.stats().received), (1, 2));
        assert_eq!(pool.proposable().count(), 1);
    }

    /// A command given while the current round's leader has not
    /// proposed goes to it, and counts as sent to the current round; one
    /// that misses that round is sent again to the next round's leader
    /// at its entry, and counts again.
    #[test]
    fn sends_to_the_round_in_progress_are_counted() {
        let policy = BlockPolicy::default();
        let mut pool = CommandPool::default();
        let none = HashSet::new();
        let (a, b) = (cmd(1, 64), cmd(2, 64));
        pool.submit(a.clone(), a.digest());
        assert_eq!(
            pool.send_new(&a.digest(), r(7), r(7), 1, false),
            Some(a.clone())
        );
        pool.submit(b.clone(), b.digest());
        assert_eq!(
            pool.send_new(&b.digest(), r(8), r(7), 1, false),
            Some(b.clone())
        );
        let s = pool.stats();
        assert_eq!((s.forwarded, s.sent_to_current), (2, 1));
        // Entering round 8: `a` missed round 7 and is retried inside 8;
        // `b` is in flight for 8.
        let sent = pool.due_for(r(8), r(8), 1, &none, &policy);
        assert_eq!(sent, std::slice::from_ref(&a));
        let s = pool.stats();
        assert_eq!((s.forwarded, s.reforwarded, s.sent_to_current), (2, 1, 2));
        // A leader's own command, in its own window: kept, not counted.
        let own = cmd(3, 64);
        pool.submit(own.clone(), own.digest());
        assert_eq!(pool.send_new(&own.digest(), r(8), r(8), 0, false), None);
        assert_eq!(pool.stats().sent_to_current, 2);
    }

    /// A command sent to a round's leader and its rank-1 backup counts
    /// once as sent and once as a copy to the backup; one sent to the
    /// leader alone — this replica being rank 1 — adds no copy, and a
    /// leader's own command none at all.
    #[test]
    fn copies_to_the_backup_are_counted() {
        let policy = BlockPolicy::default();
        let mut pool = CommandPool::default();
        let none = HashSet::new();
        let (a, b, c, own) = (cmd(1, 64), cmd(2, 64), cmd(3, 64), cmd(4, 64));
        for x in [&a, &b, &c, &own] {
            pool.submit(x.clone(), x.digest());
        }
        assert_eq!(pool.send_new(&a.digest(), r(7), r(7), 2, false), Some(a));
        assert_eq!(pool.send_new(&b.digest(), r(8), r(7), 1, false), Some(b));
        assert_eq!(pool.send_new(&own.digest(), r(8), r(7), 0, false), None);
        let s = pool.stats();
        assert_eq!(
            (s.forwarded, s.sent_to_current, s.sent_to_backup),
            (2, 1, 1)
        );
        // A pass for round 8: `c` goes to both parties, `a` (round 7
        // ended without it) again to both, `b` is in flight.
        let sent = pool.due_for(r(8), r(8), 2, &none, &policy);
        assert_eq!(sent.len(), 2);
        let s = pool.stats();
        assert_eq!((s.forwarded, s.reforwarded, s.sent_to_backup), (3, 1, 3));
    }

    /// A batch for the current round that reaches a replica after it has
    /// proposed is late — still taken — and one for the next round is
    /// not, whatever the replica did in this one.
    #[test]
    fn batches_after_the_proposal_are_late() {
        let policy = BlockPolicy::default();
        let mut pool = CommandPool::default();
        let none = HashSet::new();
        pool.receive(r(4), r(4), false, &[cmd(1, 8)], &none, &policy);
        pool.receive(r(4), r(4), true, &[cmd(2, 8)], &none, &policy);
        pool.receive(r(5), r(4), true, &[cmd(3, 8)], &none, &policy);
        pool.receive(r(3), r(4), true, &[cmd(4, 8)], &none, &policy);
        let s = pool.stats();
        assert_eq!((s.late_batches, s.received, s.refused_behind), (1, 3, 1));
    }
}
