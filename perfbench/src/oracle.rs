//! The correctness oracle, independent of the program under test.
//!
//! A CAM that stores every update, answers a search with "hit" when any
//! live entry holds the key, and deletes one stored copy per
//! `delete_first`, behaves on a trace exactly like a multiset of live
//! keys with a capacity. [`expect`] replays a trace through such a
//! multiset (a `HashMap` of counts) and predicts every answer; the
//! program's answers are reduced to the same [`Answer`] vocabulary and
//! compared record by record, or by total where only totals exist.
//! Nothing here calls the CAM code or reuses its counters.

use std::collections::HashMap;

use dsp_cam_core::pipelined::Completion;
use dsp_cam_workload::{Trace, TraceOp};

/// One record's observable answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Point search: hit or miss.
    Search(bool),
    /// Coalesced search batch: hit or miss per presented key.
    Stream(Vec<bool>),
    /// Update: admitted (`true`) or rejected.
    Update(bool),
    /// Delete: whether a stored copy was removed.
    Delete(bool),
    /// The call failed with an error no CAM answer explains (never
    /// equal to a predicted answer).
    Failed,
}

impl Answer {
    /// The answer a retired completion carries.
    pub fn of(done: &Completion) -> Answer {
        match done {
            Completion::Search(r) => Answer::Search(r.is_match()),
            Completion::SearchStream(rs) => {
                Answer::Stream(rs.iter().map(|r| r.is_match()).collect())
            }
            // No workload issues multi-group searches.
            Completion::SearchMulti(_) => Answer::Failed,
            Completion::Update(r) => Answer::Update(r.is_ok()),
            Completion::Delete(hit) => Answer::Delete(*hit),
        }
    }
}

/// Headline tallies of a list of answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub search_hits: u64,
    pub delete_hits: u64,
    pub rejections: u64,
}

impl Totals {
    pub fn of(answers: &[Answer]) -> Totals {
        let mut t = Totals::default();
        for a in answers {
            match a {
                Answer::Search(hit) => t.search_hits += u64::from(*hit),
                Answer::Stream(hits) => t.search_hits += hits.iter().filter(|h| **h).count() as u64,
                Answer::Update(ok) => t.rejections += u64::from(!*ok),
                Answer::Delete(hit) => t.delete_hits += u64::from(*hit),
                Answer::Failed => {}
            }
        }
        t
    }
}

/// The live multiset: key → stored copies, bounded by `capacity`
/// entries in total.
#[derive(Debug, Clone)]
pub struct LiveSet {
    counts: HashMap<u64, u32>,
    len: usize,
    capacity: usize,
}

impl LiveSet {
    pub fn new(capacity: usize) -> Self {
        LiveSet {
            counts: HashMap::new(),
            len: 0,
            capacity,
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        self.counts.get(&key).is_some_and(|&n| n > 0)
    }

    /// Store one copy; `false` (and nothing stored) when full.
    pub fn insert(&mut self, key: u64) -> bool {
        if self.len >= self.capacity {
            return false;
        }
        *self.counts.entry(key).or_insert(0) += 1;
        self.len += 1;
        true
    }

    /// Remove one copy; `false` when none is stored.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.counts.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }
}

/// Predict every record's answer on a CAM of `capacity` entries that
/// holds `trace.prefill` before the first record.
///
/// # Panics
///
/// Panics when the prefill alone overflows `capacity`.
pub fn expect(trace: &Trace, capacity: usize) -> Vec<Answer> {
    let mut live = LiveSet::new(capacity);
    for &key in &trace.prefill {
        assert!(live.insert(key), "prefill must fit the oracle's capacity");
    }
    trace
        .records
        .iter()
        .map(|record| match &record.op {
            TraceOp::Search(key) => Answer::Search(live.contains(*key)),
            TraceOp::SearchStream(keys) => {
                Answer::Stream(keys.iter().map(|k| live.contains(*k)).collect())
            }
            TraceOp::Update(key) => Answer::Update(live.insert(*key)),
            TraceOp::Delete { key, .. } => Answer::Delete(live.remove(*key)),
        })
        .collect()
}

/// Number of records whose answer differs from the oracle's (a length
/// mismatch counts every missing or extra record).
pub fn mismatches(expected: &[Answer], got: &[Answer]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(e, g)| e != g).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cam_workload::TraceRecord;

    fn rec(op: TraceOp) -> TraceRecord {
        TraceRecord { gap: 1, op }
    }

    /// A hand-written trace whose answers are worked out below by hand.
    fn hand_trace() -> Trace {
        Trace {
            seed: 0,
            prefill: vec![1, 2],
            records: vec![
                rec(TraceOp::Search(1)),                      // hit
                rec(TraceOp::Search(3)),                      // miss
                rec(TraceOp::Update(3)),                      // admitted (3 live)
                rec(TraceOp::Update(3)),                      // full: capacity 3
                rec(TraceOp::SearchStream(vec![3, 4, 2, 3])), // hit miss hit hit
                rec(TraceOp::Delete {
                    key: 1,
                    eviction: false,
                }), // hit
                rec(TraceOp::Delete {
                    key: 1,
                    eviction: true,
                }), // miss: gone
                rec(TraceOp::Update(1)),                      // admitted again
                rec(TraceOp::Search(1)),                      // hit
            ],
        }
    }

    #[test]
    fn oracle_predicts_a_hand_written_trace() {
        let got = expect(&hand_trace(), 3);
        assert_eq!(
            got,
            vec![
                Answer::Search(true),
                Answer::Search(false),
                Answer::Update(true),
                Answer::Update(false),
                Answer::Stream(vec![true, false, true, true]),
                Answer::Delete(true),
                Answer::Delete(false),
                Answer::Update(true),
                Answer::Search(true),
            ]
        );
        assert_eq!(
            Totals::of(&got),
            Totals {
                search_hits: 5,
                delete_hits: 1,
                rejections: 1
            }
        );
    }

    #[test]
    fn duplicates_need_one_delete_per_copy() {
        let mut live = LiveSet::new(8);
        assert!(live.insert(5) && live.insert(5));
        assert!(live.remove(5));
        assert!(live.contains(5), "one copy left");
        assert!(live.remove(5));
        assert!(!live.contains(5) && !live.remove(5));
        assert_eq!(live.len, 0);
    }

    #[test]
    fn a_single_wrong_bit_is_a_mismatch() {
        let expected = expect(&hand_trace(), 3);
        let mut got = expected.clone();
        assert_eq!(mismatches(&expected, &got), 0);
        got[4] = Answer::Stream(vec![true, true, true, true]);
        assert_eq!(mismatches(&expected, &got), 1);
        got.pop();
        assert_eq!(mismatches(&expected, &got), 2, "a missing record counts");
    }
}
