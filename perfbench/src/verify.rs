//! Output checks run on every benchmark run.
//!
//! * [`ReplyBook`] matches database replies to requests by id. Request
//!   threads reply out of order, so a FIFO match would be wrong; an id that
//!   is not pending (a duplicate or a stray) and a reply whose echoed
//!   operation differs from the request both count as failed ops, and so
//!   does every request still pending when the run ends.
//! * [`audit`] checks the record file after the load stops: the total
//!   balance is conserved and every transfer bumped both records'
//!   versions exactly once.
//! * [`PipelineCheck`] counts every message reaching the pipeline's sink:
//!   each sequence number exactly once, and the payload sum equal to the
//!   inputs plus one per stage per message.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::proto::{Reply, Req, OP_READ, OP_TRANSFER};

/// Why a reply was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyError {
    /// No request with this id is pending: a duplicate or a stray.
    UnknownId,
    /// The reply echoes another operation or other records.
    Mismatch,
}

/// Requests in flight on one connection, keyed by id.
#[derive(Default)]
pub struct ReplyBook {
    pending: HashMap<u64, (Req, Instant)>,
}

impl ReplyBook {
    /// Notes a request sent at `at`.
    pub fn sent(&mut self, req: Req, at: Instant) {
        let dup = self.pending.insert(req.id, (req, at));
        assert!(dup.is_none(), "generator reused request id {}", req.id);
    }

    /// Matches a reply; returns the request's send time.
    pub fn complete(&mut self, reply: &Reply) -> Result<Instant, ReplyError> {
        let (req, at) = self
            .pending
            .remove(&reply.id)
            .ok_or(ReplyError::UnknownId)?;
        let echo_ok = reply.op == req.op
            && reply.a == req.a
            && reply.b == req.b
            && (req.op == OP_READ || req.op == OP_TRANSFER);
        if echo_ok {
            Ok(at)
        } else {
            Err(ReplyError::Mismatch)
        }
    }

    /// Requests still waiting for a reply.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

/// Checks the record file's totals against what the generator sent.
pub fn audit(
    total: u64,
    versions: u64,
    records: u64,
    initial: u64,
    transfers: u64,
) -> Result<(), String> {
    let want_total = records * initial;
    if total != want_total {
        return Err(format!(
            "audit: total balance {total}, expected {want_total} ({} units leaked)",
            want_total as i128 - total as i128
        ));
    }
    if versions != 2 * transfers {
        return Err(format!(
            "audit: record versions sum to {versions}, expected {} for {transfers} transfers",
            2 * transfers
        ));
    }
    Ok(())
}

/// The pipeline sink's ledger.
///
/// Sequence numbers are handed out in order and arrive nearly in order, so
/// the ledger keeps a bitmap only from the lowest number not yet seen:
/// every number below `base` has arrived. Its size follows how far
/// messages overtake each other, not how many have passed.
#[derive(Default)]
pub struct PipelineCheck {
    base: u64,
    seen: VecDeque<u64>,
    received: u64,
    duplicates: u64,
    sum: u64,
}

impl PipelineCheck {
    /// Accounts one message arriving at the sink.
    pub fn record(&mut self, seq: u64, value: u64) {
        self.received += 1;
        self.sum = self.sum.wrapping_add(value);
        let Some(off) = seq.checked_sub(self.base) else {
            self.duplicates += 1;
            return;
        };
        let (word, bit) = ((off / 64) as usize, off % 64);
        if self.seen.len() <= word {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & (1 << bit) != 0 {
            self.duplicates += 1;
            return;
        }
        self.seen[word] |= 1 << bit;
        while self.seen.front() == Some(&u64::MAX) {
            self.seen.pop_front();
            self.base += 64;
        }
    }

    /// Messages received, duplicates included.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Closes the ledger: `sent` messages carried `input_sum` in total
    /// through `stages` incrementing stages. Returns the number of failed
    /// messages (lost plus duplicated) and a description of each fault.
    pub fn finish(&self, sent: u64, input_sum: u64, stages: u64) -> (u64, Vec<String>) {
        let mut faults = Vec::new();
        let distinct = self.received - self.duplicates;
        let lost = sent.saturating_sub(distinct);
        if lost > 0 {
            faults.push(format!("pipeline: {lost} of {sent} messages lost"));
        }
        if self.duplicates > 0 {
            faults.push(format!("pipeline: {} messages duplicated", self.duplicates));
        }
        let want = input_sum.wrapping_add(sent.wrapping_mul(stages));
        if self.sum != want {
            faults.push(format!(
                "pipeline: payload sum {}, expected {want}",
                self.sum
            ));
        }
        (lost + self.duplicates, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, op: u32, a: u32, b: u32) -> Req {
        Req {
            id,
            op,
            a,
            b,
            amount: 1,
        }
    }

    fn reply_to(r: &Req) -> Reply {
        Reply {
            id: r.id,
            op: r.op,
            a: r.a,
            b: r.b,
            status: 1,
            value: 0,
        }
    }

    #[test]
    fn out_of_order_replies_match_by_id() {
        let mut book = ReplyBook::default();
        let now = Instant::now();
        let reqs: Vec<Req> = (0..4).map(|i| req(i, OP_READ, i as u32, 0)).collect();
        for r in &reqs {
            book.sent(*r, now);
        }
        for r in reqs.iter().rev() {
            assert!(book.complete(&reply_to(r)).is_ok());
        }
        assert_eq!(book.pending(), 0);
    }

    #[test]
    fn a_duplicated_reply_is_reported() {
        let mut book = ReplyBook::default();
        let r = req(9, OP_TRANSFER, 1, 2);
        book.sent(r, Instant::now());
        assert!(book.complete(&reply_to(&r)).is_ok());
        assert_eq!(book.complete(&reply_to(&r)), Err(ReplyError::UnknownId));
    }

    #[test]
    fn a_mismatched_reply_is_reported() {
        let mut book = ReplyBook::default();
        let r = req(3, OP_TRANSFER, 1, 2);
        book.sent(r, Instant::now());
        let mut wrong = reply_to(&r);
        wrong.b = 5;
        assert_eq!(book.complete(&wrong), Err(ReplyError::Mismatch));
    }

    #[test]
    fn a_missing_reply_stays_pending() {
        let mut book = ReplyBook::default();
        book.sent(req(1, OP_READ, 0, 0), Instant::now());
        book.sent(req(2, OP_READ, 0, 0), Instant::now());
        assert!(book.complete(&reply_to(&req(2, OP_READ, 0, 0))).is_ok());
        assert_eq!(book.pending(), 1);
    }

    #[test]
    fn a_leaked_balance_unit_fails_the_audit() {
        assert!(audit(4096 * 1000, 20, 4096, 1000, 10).is_ok());
        let err = audit(4096 * 1000 - 1, 20, 4096, 1000, 10).unwrap_err();
        assert!(err.contains("1 units leaked"), "{err}");
    }

    #[test]
    fn a_transfer_applied_twice_fails_the_audit() {
        assert!(audit(16 * 1000, 22, 16, 1000, 10).is_err());
    }

    #[test]
    fn a_lost_pipeline_message_is_reported() {
        let mut c = PipelineCheck::default();
        let inputs = [5u64, 7, 11, 13];
        // Message 2 never arrives.
        for (seq, v) in inputs.iter().enumerate() {
            if seq != 2 {
                c.record(seq as u64, v + 3);
            }
        }
        let (failed, faults) = c.finish(4, inputs.iter().sum(), 3);
        assert_eq!(failed, 1);
        assert!(
            faults.iter().any(|f| f.contains("1 of 4 messages lost")),
            "{faults:?}"
        );
        assert!(
            faults.iter().any(|f| f.contains("payload sum")),
            "{faults:?}"
        );
    }

    #[test]
    fn a_duplicated_pipeline_message_is_reported() {
        let mut c = PipelineCheck::default();
        c.record(0, 3);
        c.record(1, 4);
        c.record(1, 4);
        // A duplicate of a number the ledger's window has moved past.
        for seq in 2..200 {
            c.record(seq, 3);
        }
        c.record(5, 3);
        let (failed, faults) = c.finish(200, 1, 3);
        assert_eq!(failed, 2);
        assert!(
            faults.iter().any(|f| f.contains("duplicated")),
            "{faults:?}"
        );
    }

    #[test]
    fn a_clean_pipeline_passes() {
        let mut c = PipelineCheck::default();
        for seq in (0..1000u64).rev() {
            c.record(seq, seq + 3);
        }
        let (failed, faults) = c.finish(1000, (0..1000).sum(), 3);
        assert_eq!((failed, faults.len()), (0, 0));
        assert_eq!(c.received(), 1000);
    }
}
