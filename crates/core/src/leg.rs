//! One direction of one shard leg, transmitted in rounds: ATP's
//! speculative transmission (Algorithm 1) with a must-land prefix. A
//! reliable transfer is the same machine with every unit must-land.

use std::ops::Range;

use crate::RowId;

/// A row's payload bytes as a [`Leg`] keeps them.
fn narrow(bytes: u64) -> u32 {
    u32::try_from(bytes).expect("a row's payload fits in 4 GiB")
}

/// One round of a [`Leg`]; only the speculative one has a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// The whole plan, under the shard's MTA-time budget (a reliable
    /// transfer has none).
    Speculative,
    /// The rows the deadline cut off, up to the leg's target.
    Continuation,
    /// The must-land rows that did not arrive intact.
    Retransmit,
}

/// One direction (push or pull) of a shard leg: the transmission of a
/// ranked row plan (ATP) in rounds. The speculative round carries the
/// whole plan under the shard's MTA-time budget; if that deadline cuts
/// it short of `target`, a continuation carries exactly the rows up to
/// `target`. When rounds report fates, retransmit rounds then resend
/// the must-land rows that did not arrive intact until they have.
/// [`crate::WorkerRole`] owns the pushes, [`crate::ServerRole`] the
/// pulls; a driver reports each round through them. A reliable
/// transfer ([`Self::open_must_land`]) is a leg of payload units that
/// all must land; its driver reports each round itself.
///
/// The leg sizes its rows once, when it opens: each plan position's
/// payload bytes, as its owner's codec state frames the row then. Every
/// round reads those sizes. Only a content-sized codec's sizes can go
/// stale while the leg is in the air; the owner then marks the leg
/// stale, and from that point each read re-sizes exactly the rows it
/// reads.
#[derive(Debug, Clone, Default)]
pub struct Leg {
    /// Rows to transmit, in rank order.
    plan: Vec<RowId>,
    /// Payload bytes of each plan position, taken when the leg opened
    /// (a row's payload is far below 4 GiB, and a fleet holds thousands
    /// of legs).
    sizes: Vec<u32>,
    /// What the sizes hang on (row contents, the codec) may have moved
    /// since they were taken.
    stale: bool,
    /// Length of the prefix of `plan` transmitted so far.
    delivered: usize,
    /// Rows that must be transmitted before the leg may end (the MTA,
    /// and on a push any longer RSP-mandatory prefix).
    target: usize,
    /// Length of the prefix of `plan` that must land: a push's
    /// RSP-mandatory rows (a worker at the bound blocks every peer's
    /// pull). Other rows are best-effort: a lost push row is not
    /// committed and ages toward the bound, a lost pull row stays
    /// pending on the server.
    must_land: usize,
    /// A round reported fates: only `intact` rows landed.
    fated: bool,
    /// Transmitted rows that arrived intact, in landing order.
    intact: Vec<RowId>,
    /// Which plan positions are in `intact`.
    landed: Vec<bool>,
    /// The must-land rows the current retransmit round carries, and
    /// their plan positions.
    resend: Vec<RowId>,
    resend_at: Vec<usize>,
}

impl Leg {
    /// The plan, for its owner to refill before [`Self::begin`].
    pub(crate) fn plan_mut(&mut self) -> &mut Vec<RowId> {
        &mut self.plan
    }

    /// Arms the leg for a fresh transmission of its plan, taking each
    /// row's payload bytes from `size`.
    pub(crate) fn begin(
        &mut self,
        target: usize,
        must_land: usize,
        size: impl FnMut(RowId) -> u64,
    ) {
        self.sizes.clear();
        self.sizes
            .extend(self.plan.iter().copied().map(size).map(narrow));
        self.stale = false;
        self.target = target;
        self.must_land = must_land;
        self.delivered = 0;
        self.fated = false;
        self.intact.clear();
        self.resend.clear();
        self.resend_at.clear();
    }

    /// Opens a transfer of `units` units that must all land, with no
    /// deadline: plan position `i` is unit `i`, carried as `RowId(i)`,
    /// of `size(RowId(i))` bytes. The speculative round carries every
    /// unit; each retransmit round carries the units still missing, in
    /// plan order.
    pub fn open_must_land(&mut self, units: usize, size: impl FnMut(RowId) -> u64) {
        self.plan.clear();
        self.plan.extend((0..units).map(RowId));
        self.begin(units, units, size);
    }

    /// Rows to transmit, in rank order.
    pub fn plan(&self) -> &[RowId] {
        &self.plan
    }

    /// Length of the prefix of the plan transmitted so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// The rows `round` carries, while it is the leg's current round.
    pub fn rows(&self, round: Round) -> &[RowId] {
        match round {
            Round::Speculative => &self.plan,
            Round::Continuation => &self.plan[self.delivered..self.target],
            Round::Retransmit => &self.resend,
        }
    }

    /// The state the leg's sizes were taken from moved (rows
    /// accumulated or ingested, a codec switched, a rejoin reset it):
    /// every later read re-sizes the rows it reads.
    pub(crate) fn unsize(&mut self) {
        self.stale = true;
    }

    /// Payload bytes of the rows `round` carries, parallel to
    /// [`Self::rows`]; re-taken from `size` if the leg is stale.
    pub fn round_sizes(
        &mut self,
        round: Round,
        size: impl FnMut(RowId) -> u64,
    ) -> impl Iterator<Item = u64> + '_ {
        match round {
            Round::Speculative => self.sized(0..self.plan.len(), false, size),
            Round::Continuation => self.sized(self.delivered..self.target, false, size),
            Round::Retransmit => self.sized(0..0, true, size),
        }
    }

    /// Payload bytes of every row transmitted so far, in plan order;
    /// re-taken from `size` if the leg is stale.
    pub(crate) fn sent_sizes(
        &mut self,
        size: impl FnMut(RowId) -> u64,
    ) -> impl Iterator<Item = u64> + '_ {
        self.sized(0..self.delivered, false, size)
    }

    /// The sizes of plan positions `span`, then of the current
    /// retransmit round's positions if `resend`, each re-taken from
    /// `size` first if the leg is stale.
    fn sized(
        &mut self,
        span: Range<usize>,
        resend: bool,
        mut size: impl FnMut(RowId) -> u64,
    ) -> impl Iterator<Item = u64> + '_ {
        let picks = if resend { &self.resend_at[..] } else { &[] };
        let at = span.chain(picks.iter().copied());
        if self.stale {
            for i in at.clone() {
                self.sizes[i] = narrow(size(self.plan[i]));
            }
        }
        let sizes = &self.sizes;
        at.map(move |i| u64::from(sizes[i]))
    }

    /// Accounts one finished round: its first `sent` rows went out, and
    /// `intact[i]` says whether its row `i` arrived (a row past the end
    /// did not). Without fates (for every round of the leg) every row
    /// sent counts as landed. Returns the next round, or `None` once
    /// [`Self::landed`] has the rows.
    pub fn on_round(
        &mut self,
        round: Round,
        sent: usize,
        intact: Option<&[bool]>,
    ) -> Option<Round> {
        if let Some(intact) = intact {
            if !self.fated {
                self.fated = true;
                self.landed.clear();
                self.landed.resize(self.plan.len(), false);
            }
            for i in (0..sent).filter(|&i| intact.get(i) == Some(&true)) {
                let at = match round {
                    Round::Retransmit => self.resend_at[i],
                    _ => self.delivered + i,
                };
                self.landed[at] = true;
                self.intact.push(self.plan[at]);
            }
        }
        if round != Round::Retransmit {
            self.delivered += sent;
        }
        if round == Round::Speculative && self.delivered < self.target {
            return Some(Round::Continuation);
        }
        if !self.fated {
            return None;
        }
        self.resend.clear();
        self.resend_at.clear();
        for at in 0..self.must_land.min(self.delivered) {
            if !self.landed[at] {
                self.resend.push(self.plan[at]);
                self.resend_at.push(at);
            }
        }
        (!self.resend.is_empty()).then_some(Round::Retransmit)
    }

    /// The rows that got through: the intact ones when rounds reported
    /// fates, otherwise everything transmitted.
    pub fn landed(&self) -> &[RowId] {
        if self.fated {
            &self.intact
        } else {
            &self.plan[..self.delivered]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    /// Row `i` is `i + 1` bytes, its size at the leg's opening.
    fn opening_size(id: RowId) -> u64 {
        id.0 as u64 + 1
    }

    fn leg(rows: usize, target: usize, must_land: usize) -> Leg {
        let mut leg = Leg {
            plan: (0..rows).map(RowId).collect(),
            ..Leg::default()
        };
        leg.begin(target, must_land, opening_size);
        leg
    }

    #[test]
    fn rounds_read_the_opening_sizes_until_the_leg_is_unsized() {
        let mut l = leg(6, 4, 2);
        let fresh = |_: RowId| -> u64 { panic!("an unmoved leg re-sizes nothing") };
        let sizes = l.round_sizes(Round::Speculative, fresh).collect::<Vec<_>>();
        assert_eq!(sizes, [1, 2, 3, 4, 5, 6]);
        // Cut after two rows, the first lost: the leg continues to its
        // target, then resends the lost must-land row.
        let next = l.on_round(Round::Speculative, 2, Some(&[false, true]));
        assert_eq!(next, Some(Round::Continuation));
        assert_eq!(l.sent_sizes(fresh).collect::<Vec<_>>(), [1, 2]);
        l.unsize();
        let moved = |id: RowId| 100 + id.0 as u64;
        let sizes = l
            .round_sizes(Round::Continuation, moved)
            .collect::<Vec<_>>();
        assert_eq!(sizes, [102, 103]);
        let next = l.on_round(Round::Continuation, 2, Some(&[true, true]));
        assert_eq!(next, Some(Round::Retransmit));
        let sizes = l.round_sizes(Round::Retransmit, moved).collect::<Vec<_>>();
        assert_eq!(sizes, [100]);
        assert_eq!(
            l.sent_sizes(moved).collect::<Vec<_>>(),
            [100, 101, 102, 103]
        );
        // Reopening takes every size afresh and trusts them again.
        l.begin(4, 2, opening_size);
        assert_eq!(l.sent_sizes(fresh).count(), 0);
        let sizes = l.round_sizes(Round::Speculative, fresh).collect::<Vec<_>>();
        assert_eq!(sizes, [1, 2, 3, 4, 5, 6]);
    }

    /// Where a deadline cut a round (`DONE`: it completed).
    type Cut = Option<usize>;

    fn cut_at(chunks_done: usize) -> Cut {
        Some(chunks_done)
    }

    const DONE: Cut = None;

    fn on_leg_round(l: &mut Leg, round: Round, cut: Cut, fates: Option<&[bool]>) -> Option<Round> {
        let sent = cut.unwrap_or(l.rows(round).len());
        l.on_round(round, sent, fates)
    }

    #[test]
    fn leg_that_fits_its_deadline_delivers_the_whole_plan() {
        let mut l = leg(10, 4, 2);
        assert_eq!(on_leg_round(&mut l, Round::Speculative, DONE, None), None);
        assert_eq!(l.landed().len(), 10);
    }

    #[test]
    fn leg_cut_below_its_target_continues_exactly_to_it() {
        let mut l = leg(10, 4, 2);
        let next = on_leg_round(&mut l, Round::Speculative, cut_at(1), None);
        assert_eq!(next, Some(Round::Continuation));
        assert_eq!(l.rows(Round::Continuation), [RowId(1), RowId(2), RowId(3)]);
        assert_eq!(on_leg_round(&mut l, Round::Continuation, DONE, None), None);
        assert_eq!(l.landed(), [RowId(0), RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn leg_cut_at_or_above_its_target_is_finished() {
        let mut l = leg(10, 4, 2);
        assert_eq!(
            on_leg_round(&mut l, Round::Speculative, cut_at(6), None),
            None
        );
        assert_eq!(l.landed().len(), 6);
    }

    /// A chunk's fate on a lossy link.
    #[derive(Clone, Copy, PartialEq)]
    enum Fate {
        Delivered,
        Lost,
        Corrupt,
    }

    /// Drives `l` through lossy `rounds` (each: the round, its outcome,
    /// its chunks' fates and the next round it must report) and returns
    /// what landed.
    fn drive_lossy(mut l: Leg, rounds: &[(Round, Cut, &[Fate], Option<Round>)]) -> Vec<RowId> {
        for (round, cut, fates, next) in rounds {
            let intact: Vec<bool> = fates.iter().map(|&f| f == Fate::Delivered).collect();
            let got = on_leg_round(&mut l, *round, *cut, Some(&intact));
            assert_eq!(got, *next, "{round:?}");
        }
        l.landed().to_vec()
    }
    #[test]
    fn lossy_leg_lands_only_the_intact_rows_of_both_flows() {
        use Fate::{Corrupt, Delivered, Lost};
        use Round::{Continuation as Cont, Retransmit as Resend, Speculative as Spec};
        let first: &[_] = &[Delivered, Lost];
        // Nothing must land (a pull, or a push with no row at the bound):
        // the intact chunk of each flow lands, the lost rows stay lost.
        let rounds = [
            (Spec, cut_at(2), first, Some(Cont)),
            (Cont, DONE, &[Corrupt, Delivered], None),
        ];
        assert_eq!(drive_lossy(leg(6, 4, 0), &rounds), [RowId(0), RowId(3)]);
        // Rows 0..3 must land: lost rows 1 and 2 go out again, in rank
        // order, until each has landed; best-effort row 3 never does.
        let rounds = [
            (Spec, cut_at(2), first, Some(Cont)),
            (Cont, DONE, &[Corrupt, Lost], Some(Resend)),
            (Resend, DONE, &[Lost, Delivered], Some(Resend)),
            (Resend, DONE, &[Delivered], None),
        ];
        assert_eq!(
            drive_lossy(leg(6, 4, 3), &rounds),
            [RowId(0), RowId(2), RowId(1)]
        );
        // Lost best-effort rows behind a landed must-land row: no resend.
        let rounds = [(Spec, DONE, &[Delivered, Lost, Corrupt, Delivered][..], None)];
        assert_eq!(drive_lossy(leg(4, 4, 1), &rounds), [RowId(0), RowId(3)]);
    }

    proptest! {
        /// Under any seeded loss a leg whose units all must land (a
        /// reliable transfer) terminates and lands every unit exactly
        /// once: each retransmit round carries exactly the units still
        /// missing, in plan order, at their opening sizes.
        #[test]
        fn must_land_leg_terminates_and_lands_every_unit_once(
            units in 0usize..40,
            seed in 0u64..u64::MAX,
            loss in 0.0f64..0.9,
        ) {
            let mut rng = DetRng::new(seed);
            let mut l = Leg::default();
            l.open_must_land(units, opening_size);
            let mut landed = vec![0u32; units];
            let mut round = Round::Speculative;
            for n in 1.. {
                prop_assert!(n < 10_000, "leg livelocked");
                let missing: Vec<RowId> = (0..units).filter(|&u| landed[u] == 0).map(RowId).collect();
                prop_assert_eq!(l.rows(round), &missing[..]);
                let sizes: Vec<u64> = l.round_sizes(round, |_| unreachable!("never unsized")).collect();
                prop_assert_eq!(sizes, missing.iter().copied().map(opening_size).collect::<Vec<_>>());
                let intact: Vec<bool> = missing.iter().map(|_| !rng.chance(loss)).collect();
                for (id, _) in missing.iter().zip(&intact).filter(|(_, &ok)| ok) {
                    landed[id.0] += 1;
                }
                let Some(next) = l.on_round(round, missing.len(), Some(&intact)) else { break };
                prop_assert_eq!(next, Round::Retransmit);
                round = next;
            }
            prop_assert!(landed.iter().all(|&n| n == 1), "{:?}", landed);
            prop_assert_eq!(l.landed().len(), units);
        }
    }
}
