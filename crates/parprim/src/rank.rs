//! Dense renaming ("replace each item by its rank").
//!
//! Both recursive contractions in the paper — step 3 of *Algorithm efficient
//! m.s.p.* and step 3 of *Algorithm sorting strings* — sort a multiset of
//! ordered pairs and then replace every pair by its rank in the sorted order,
//! so that the next round works over a dense alphabet `[0, 2n/3)`.
//!
//! * [`dense_ranks_by_sort`] — **order-preserving**: equal keys get equal
//!   ranks and the ranks respect the key order.  Backed by the radix sort.
//! * [`dense_ranks_of_pairs`] — the same for ordered pairs, ranked
//!   lexicographically.
//!
//! The order-preserving pipeline is fused and allocation-free: the keys are
//! packed into `(key, index)` records, radix-sorted by streaming passes, and
//! then a **single blocked pass** over the sorted records detects group
//! boundaries, prefix-sums the per-block boundary counts, and scatters the
//! ranks.  That pass charges the three §8 model steps it stands for — a
//! boundary-flag round, the group-id scan, and the rank-scatter round (see
//! `DESIGN.md`, "Charge discipline") — and the charges are pinned by the
//! tests below.
//!
//! The `_into` variants write the ranks into a caller-provided buffer so
//! that doubling loops can reuse one rank buffer across all `O(log n)`
//! rounds.
//!
//! [`refine_classes_into`] is the prefix-doubling round of Step 3's
//! Lemma 4.2 labelling, restricted to the classes that can still split
//! (Larsson–Sadakane, *Faster suffix sorting*, TCS 387, 2007).  It does
//! not renumber: class ids stay dense, a split class keeps its id for its
//! first subclass and hands fresh ids to the others, and a class that can
//! never split again carries the [`SETTLED`] flag and is skipped by later
//! rounds.  Its keys are packed straight from the class array into radix
//! words (the class count bounds both halves), and its finish is the same
//! blocked single pass as the dense-rank finish.

use crate::intsort::{idx_bits_for, radix_sort_recs_prebounded, radix_sort_words, sig_bits};
use crate::scan::{charge_scan_cost, SCAN_BLOCK};
use rayon::prelude::*;
use sfcp_pram::{Ctx, Rec};

/// Order-preserving dense ranks of `keys`: returns `(ranks, distinct)`, where
/// `ranks[i] < distinct`, `ranks[i] == ranks[j]` iff `keys[i] == keys[j]`, and
/// `ranks[i] < ranks[j]` iff `keys[i] < keys[j]`.
///
/// Work: that of a radix sort plus `O(n)`; depth `O(log n)`.
#[must_use]
pub fn dense_ranks_by_sort(ctx: &Ctx, keys: &[u64]) -> (Vec<u32>, usize) {
    let mut ranks = Vec::new();
    let distinct = dense_ranks_by_sort_into(ctx, keys, &mut ranks);
    (ranks, distinct)
}

/// [`dense_ranks_by_sort`] writing the ranks into a reusable buffer;
/// returns the number of distinct keys.
pub fn dense_ranks_by_sort_into(ctx: &Ctx, keys: &[u64], ranks: &mut Vec<u32>) -> usize {
    dense_ranks_by_key_into(ctx, keys.len(), |i| keys[i], ranks)
}

/// [`dense_ranks_by_sort_into`] over the keys `key(0..n)`, read where the
/// packing pass needs them instead of from a key array.
pub fn dense_ranks_by_key_into<K>(ctx: &Ctx, n: usize, key: K, ranks: &mut Vec<u32>) -> usize
where
    K: Fn(usize) -> u64 + Sync + Send,
{
    let _span = ctx.pass("dense_ranks_by_sort");
    if n == 0 {
        ranks.clear();
        return 0;
    }
    if n == 1 {
        // The model's charges for the trivial case (its radix sort returns
        // before the max scan).
        ctx.charge_step(1); // identity-order setup
        ranks.resize(1, 0);
        ranks[0] = 0;
        ctx.charge_step(1); // boundary flags
        charge_scan_cost(ctx, 1);
        ctx.charge_step(1); // rank scatter
        return 1;
    }
    let max_key = (0..n).map(&key).max().unwrap();
    ctx.charge_step(n as u64); // max scan
    let key_bits = sig_bits(max_key);
    let idx_bits = idx_bits_for(n);
    let ws = ctx.workspace();
    ranks.resize(n, 0);
    if key_bits + idx_bits <= 64 {
        let mut words = ws.take_u64(n);
        let mut scratch = ws.take_u64(n);
        // The packing pass is the model's identity-order setup round.
        ctx.par_update(&mut words, |i, w| *w = (key(i) << idx_bits) | i as u64);
        radix_sort_words(ctx, &mut words, &mut scratch, key_bits, idx_bits);
        let mask = (1u64 << idx_bits) - 1;
        fused_rank_finish(
            ctx,
            &words,
            |&w| w >> idx_bits,
            |&w| (w & mask) as u32,
            ranks,
        )
    } else {
        let mut recs = ws.take_recs(n);
        let mut scratch = ws.take_recs(n);
        ctx.par_update(&mut recs, |i, r| *r = Rec::new(key(i), i as u32));
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, key_bits);
        fused_rank_finish(ctx, &recs, |r: &Rec| r.key, |r: &Rec| r.pay, ranks)
    }
}

/// The fused finish: one blocked pass over the *sorted* items detects
/// boundaries, ranks every item, and scatters `ranks[payload] = rank`.
/// `key`/`pay` project the sort key and embedded payload out of an item
/// (a packed `u64` word or a wide [`Rec`]).  Returns the number of distinct
/// keys.
///
/// Model cost (charged up front): the §8 boundary-flag round, group-id scan
/// and rank-scatter round the fused pass stands for.
fn fused_rank_finish<T, K, P>(ctx: &Ctx, items: &[T], key: K, pay: P, ranks: &mut [u32]) -> usize
where
    T: Sync,
    K: Fn(&T) -> u64 + Sync + Send,
    P: Fn(&T) -> u32 + Sync + Send,
{
    let n = items.len();
    debug_assert_eq!(ranks.len(), n);
    ctx.charge_step(n as u64); // boundary flags
    charge_scan_cost(ctx, n); // group ids (an inclusive scan)
    ctx.charge_step(n as u64); // rank scatter

    if n <= SCAN_BLOCK {
        // Single sequential sweep.
        let mut group = 0u32;
        let mut prev = key(&items[0]);
        ranks[pay(&items[0]) as usize] = 0;
        for r in &items[1..] {
            let k = key(r);
            if k != prev {
                group += 1;
                prev = k;
            }
            ranks[pay(r) as usize] = group;
        }
        return group as usize + 1;
    }

    // Blocked: per-block boundary counts, a tiny sequential prefix scan over
    // the blocks, then a per-block rank-and-scatter sweep.
    let num_blocks = n.div_ceil(SCAN_BLOCK);
    let ws = ctx.workspace();
    let mut block_bounds = ws.take_u32(num_blocks);
    {
        let counts_ptr = SendPtr(block_bounds.as_mut_ptr());
        let key = &key;
        (0..num_blocks).into_par_iter().for_each(|b| {
            let cp = counts_ptr;
            let start = b * SCAN_BLOCK;
            let end = (start + SCAN_BLOCK).min(n);
            let mut count = 0u32;
            for i in start.max(1)..end {
                count += u32::from(key(&items[i]) != key(&items[i - 1]));
            }
            // SAFETY: one write per block index.
            unsafe {
                *cp.0.add(b) = count;
            }
        });
    }
    // Exclusive prefix over the per-block boundary counts — routed through
    // the tiled transpose-scan helper, which splits the scan across workers
    // once the block count outgrows a tile (uncharged either way: the fused
    // finish charges the scan model up front).
    let running =
        crate::intsort::transpose_scan_offsets(ctx, &mut block_bounds, 1, num_blocks, None);
    let distinct = running as usize + 1;
    let ranks_ptr = SendPtr(ranks.as_mut_ptr());
    let key = &key;
    let pay = &pay;
    let base = &block_bounds;
    (0..num_blocks).into_par_iter().for_each(|b| {
        let ptr = ranks_ptr;
        let start = b * SCAN_BLOCK;
        let end = (start + SCAN_BLOCK).min(n);
        let mut group = base[b];
        for i in start..end {
            if i > 0 && key(&items[i]) != key(&items[i - 1]) {
                group += 1;
            }
            // SAFETY: payloads form a permutation — one write per slot.
            unsafe {
                *ptr.0.add(pay(&items[i]) as usize) = group;
            }
        }
    });
    distinct
}

/// Order-preserving dense ranks of pairs, ranked lexicographically.
/// Equivalent to `dense_ranks_by_sort` on packed keys when both components
/// fit in 32 bits (which the dense labels produced by the algorithms always
/// do), otherwise falls back to a sort of the raw pairs.
#[must_use]
pub fn dense_ranks_of_pairs(ctx: &Ctx, pairs: &[(u64, u64)]) -> (Vec<u32>, usize) {
    let mut ranks = Vec::new();
    let distinct = dense_ranks_of_pairs_into(ctx, pairs, &mut ranks);
    (ranks, distinct)
}

/// [`dense_ranks_of_pairs`] writing the ranks into a reusable buffer;
/// returns the number of distinct pairs.
pub fn dense_ranks_of_pairs_into(ctx: &Ctx, pairs: &[(u64, u64)], ranks: &mut Vec<u32>) -> usize {
    let _span = ctx.pass("dense_ranks_of_pairs");
    let n = pairs.len();
    if n == 0 {
        ranks.clear();
        return 0;
    }
    let max_a = pairs.iter().map(|p| p.0).max().unwrap();
    let max_b = pairs.iter().map(|p| p.1).max().unwrap();
    ctx.charge_step(2 * n as u64);
    // Pack as tightly as possible so the radix sort needs as few counting
    // passes as possible (the dense labels of the contraction algorithms fit
    // in well under 32 bits each).
    let b_bits = (64 - max_b.leading_zeros()).max(1);
    let a_bits = (64 - max_a.leading_zeros()).max(1);
    if a_bits + b_bits <= 64 {
        let ws = ctx.workspace();
        let key_bits = a_bits + b_bits;
        let idx_bits = idx_bits_for(n);
        ranks.resize(n, 0);
        // The packing pass is the model's key-packing map; the extra
        // charge_step(n) is its identity-order setup round, and (for n > 1)
        // the second one its max scan — the key width is already known here.
        ctx.charge_step(n as u64);
        if n > 1 {
            ctx.charge_step(n as u64);
        }
        if key_bits + idx_bits <= 64 {
            let mut words = ws.take_u64(n);
            let mut scratch = ws.take_u64(n);
            ctx.par_update(&mut words, |i, w| {
                let (a, b) = pairs[i];
                *w = (((a << b_bits) | b) << idx_bits) | i as u64;
            });
            radix_sort_words(ctx, &mut words, &mut scratch, key_bits, idx_bits);
            let mask = (1u64 << idx_bits) - 1;
            fused_rank_finish(
                ctx,
                &words,
                |&w| w >> idx_bits,
                |&w| (w & mask) as u32,
                ranks,
            )
        } else {
            let mut recs = ws.take_recs(n);
            let mut scratch = ws.take_recs(n);
            ctx.par_update(&mut recs, |i, r| {
                let (a, b) = pairs[i];
                *r = Rec::new((a << b_bits) | b, i as u32);
            });
            radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, key_bits);
            fused_rank_finish(ctx, &recs, |r: &Rec| r.key, |r: &Rec| r.pay, ranks)
        }
    } else {
        // Rare path: rank via a full comparison sort of the pairs.
        let mut idx: Vec<u32> = (0..n as u32).collect();
        ctx.par_sort_unstable_by_key(&mut idx, |&i| pairs[i as usize]);
        ranks.resize(n, 0);
        let mut distinct = 0u32;
        for (j, &i) in idx.iter().enumerate() {
            if j > 0 && pairs[idx[j - 1] as usize] != pairs[i as usize] {
                distinct += 1;
            }
            ranks[i as usize] = distinct;
        }
        ctx.charge_step(n as u64);
        distinct as usize + 1
    }
}

/// The flag bit of a class word in [`refine_classes_into`]: the class is
/// settled and never splits again.  The low 31 bits hold the class id.
pub const SETTLED: u32 = 1 << 31;

/// The nodes a [`refine_classes_into`] round ranks.
#[derive(Debug, Clone, Copy)]
pub enum Listed<'a> {
    /// The nodes `0..n`: a round over them reads no list.
    Prefix(usize),
    /// These nodes, in strictly increasing order.
    Nodes(&'a [u32]),
}

impl Listed<'_> {
    /// The number of listed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            Listed::Prefix(n) => n,
            Listed::Nodes(list) => list.len(),
        }
    }

    /// Whether no node is listed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th listed node.
    #[inline]
    #[must_use]
    pub fn node(&self, i: usize) -> u32 {
        match *self {
            Listed::Prefix(_) => i as u32,
            Listed::Nodes(list) => list[i],
        }
    }
}

/// What one [`refine_classes_into`] round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refinement {
    /// Class ids handed out after the round: the count before it plus one
    /// fresh id per split-off subclass.
    pub classes: u32,
    /// Listed nodes whose class is still unsettled after the round.
    pub open: usize,
}

/// One prefix-doubling round over the listed nodes of the unsettled
/// classes.
///
/// `lab[x]` is node `x`'s class word: a class id below `classes`, plus
/// [`SETTLED`] once the class can no longer split (a class's members all
/// carry the same word).  `jump[x]` is `x`'s current target.  Every listed
/// node `x` of an unsettled class is keyed by (class of `x`, class of
/// `jump[x]`), and the groups of equal keys become the new classes:
///
/// * within a class, the subclass with the smallest key keeps the class
///   id, and every other subclass takes a fresh id, from `classes` upward
///   in key order;
/// * a subclass settles when it has one member or its targets lie in a
///   settled class.
///
/// Listed nodes of settled classes are keyed (class, 0), read no jump and
/// keep their words.  Returns the new class count and the number of listed
/// nodes left unsettled.  The caller advances the jumps of the nodes still
/// unsettled.
///
/// Charges (`L = listed.len()`): the packing map `L`, the radix sort of the
/// keys (no max scan: the class count bounds them), and the boundary, scan
/// and write rounds of the dense-rank finish.
///
/// # Panics
/// If `jump` and `lab` differ in length or hold more than `2^31` nodes, a
/// listed node lies outside them, a list is not strictly increasing, or
/// `classes` is 0 or reaches [`SETTLED`].
pub fn refine_classes_into(
    ctx: &Ctx,
    listed: Listed<'_>,
    jump: &[u32],
    lab: &mut [u32],
    classes: u32,
) -> Refinement {
    let _span = ctx.pass("refine_classes");
    let n = listed.len();
    if n == 0 {
        return Refinement { classes, open: 0 };
    }
    assert!(classes > 0 && classes < SETTLED, "class ids are 31 bits");
    assert_eq!(jump.len(), lab.len());
    assert!(lab.len() <= SETTLED as usize, "node ids are 31 bits");
    // The finish writes each listed node's word through a raw pointer from
    // whichever task holds its item: no node may be listed twice.
    match listed {
        Listed::Prefix(n) => assert!(n <= lab.len(), "listed nodes lie outside the class array"),
        Listed::Nodes(list) => assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "listed nodes must be strictly increasing"
        ),
    }
    // A key is (class of x, class of x's target), or (class of x, 0) for a
    // settled x: no unsettled key shares its class.  The item's payload
    // carries x and a bit that settles x's group whatever its size: x's
    // class or its target's class is settled.  The bit rides below the key,
    // so the sort does not read it.
    let b_bits = sig_bits(u64::from(classes - 1));
    let key_bits = 2 * b_bits;
    let idx_bits = idx_bits_for(lab.len());
    let pack = {
        let lab = &*lab;
        move |i: usize| -> (u64, u32, bool) {
            let x = listed.node(i);
            let w = lab[x as usize];
            if w & SETTLED != 0 {
                return (u64::from(w & !SETTLED) << b_bits, x, true);
            }
            let t = lab[jump[x as usize] as usize];
            let key = (u64::from(w) << b_bits) | u64::from(t & !SETTLED);
            (key, x, t & SETTLED != 0)
        }
    };
    let ws = ctx.workspace();
    if key_bits + idx_bits < 64 {
        let mut words = ws.take_u64(n);
        let mut scratch = ws.take_u64(n);
        let low = idx_bits + 1;
        ctx.par_update(&mut words, |i, w| {
            let (key, x, settles) = pack(i);
            *w = (key << low) | (u64::from(settles) << idx_bits) | u64::from(x);
        });
        radix_sort_words(ctx, &mut words, &mut scratch, key_bits, low);
        let mask = (1u64 << idx_bits) - 1;
        let finish = RefineFinish {
            items: &words[..],
            key: |w: &u64| w >> low,
            pay: |w: &u64| ((w & mask) as u32, (w >> idx_bits) & 1 == 1),
            b_bits,
            classes,
        };
        finish.run(ctx, lab)
    } else {
        let mut recs = ws.take_recs(n);
        let mut scratch = ws.take_recs(n);
        ctx.par_update(&mut recs, |i, r| {
            let (key, x, settles) = pack(i);
            *r = Rec::new(key, x | u32::from(settles) << 31);
        });
        radix_sort_recs_prebounded(ctx, &mut recs, &mut scratch, key_bits);
        let finish = RefineFinish {
            items: &recs[..],
            key: |r: &Rec| r.key,
            pay: |r: &Rec| (r.pay & !SETTLED, r.pay & SETTLED != 0),
            b_bits,
            classes,
        };
        finish.run(ctx, lab)
    }
}

/// How the last group of a block got its id, as [`RefineFinish::sweep`]
/// reports it: no group starts in the block (inherit the previous block's),
/// the group is its class's first subclass, or it took a fresh id.
const TAIL_INHERIT: u32 = 0;
const TAIL_FIRST: u32 = 1;
const TAIL_FRESH: u32 = 2;

/// What a [`RefineFinish::sweep`] over one block counted.
struct BlockSweep {
    fresh: u32,
    open: u32,
    tail: u32,
}

/// The finish of [`refine_classes_into`] over its sorted items: `key`
/// projects the packed key out of an item, and `pay` the node and its
/// settle bit.
struct RefineFinish<'a, T, K, P> {
    items: &'a [T],
    key: K,
    pay: P,
    b_bits: u32,
    classes: u32,
}

impl<T, K, P> RefineFinish<'_, T, K, P>
where
    T: Sync,
    K: Fn(&T) -> u64 + Sync + Send,
    P: Fn(&T) -> (u32, bool) + Sync + Send,
{
    /// The fused finish: like the dense-rank finish, one sequential sweep
    /// up to [`SCAN_BLOCK`] items, else a counting sweep per block, a
    /// sequential pass over the block counts, and a writing sweep per
    /// block.  Charges the boundary, scan and write rounds up front.
    fn run(&self, ctx: &Ctx, lab: &mut [u32]) -> Refinement {
        let n = self.items.len();
        ctx.charge_step(n as u64); // boundary flags
        charge_scan_cost(ctx, n); // fresh ids and open counts (a scan)
        ctx.charge_step(n as u64); // word writes
        if n <= SCAN_BLOCK {
            let s = self.sweep(0, n, 0, false, |x, w| lab[x as usize] = w);
            return Refinement {
                classes: self.classes + s.fresh,
                open: s.open as usize,
            };
        }
        let num_blocks = n.div_ceil(SCAN_BLOCK);
        let mut blocks = ctx.workspace().take_u32(3 * num_blocks);
        blocks.par_chunks_mut(3).enumerate().for_each(|(b, cell)| {
            let start = b * SCAN_BLOCK;
            let s = self.sweep(start, (start + SCAN_BLOCK).min(n), 0, false, |_, _| {});
            cell.copy_from_slice(&[s.fresh, s.open, s.tail]);
        });
        // Per block: the fresh ids handed out before it, and how the group
        // running into its first item got its id.
        let (mut fresh, mut open, mut carry) = (0u32, 0usize, TAIL_FIRST);
        for cell in blocks.chunks_mut(3) {
            let (f, o, tail) = (cell[0], cell[1], cell[2]);
            cell[0] = fresh;
            cell[2] = carry;
            fresh += f;
            open += o as usize;
            if tail != TAIL_INHERIT {
                carry = tail;
            }
        }
        let lab_ptr = SendPtr(lab.as_mut_ptr());
        blocks.par_chunks(3).enumerate().for_each(|(b, cell)| {
            let start = b * SCAN_BLOCK;
            let end = (start + SCAN_BLOCK).min(n);
            self.sweep(start, end, cell[0], cell[2] == TAIL_FRESH, |x, w| {
                let p = lab_ptr;
                // SAFETY: the items carry distinct listed nodes, each below
                // `lab.len()` (the packing map read `lab` at it): one write
                // per slot.
                unsafe {
                    *p.0.add(x as usize) = w;
                }
            });
        });
        Refinement {
            classes: self.classes + fresh,
            open,
        }
    }

    /// Walk the sorted `items[start..end)` and hand `emit(node, word)` every
    /// item's new class word (a settled node's word comes back unchanged).
    /// `fresh_before` counts the fresh ids handed out before `start`;
    /// `carry_fresh` says whether the group running into `start` from an
    /// earlier block took a fresh id.
    fn sweep(
        &self,
        start: usize,
        end: usize,
        fresh_before: u32,
        carry_fresh: bool,
        mut emit: impl FnMut(u32, u32),
    ) -> BlockSweep {
        let b_bits = self.b_bits;
        // `u64::MAX` stands for "no item": packed keys have at most 62 bits.
        let at = |i: usize| self.items.get(i).map_or(u64::MAX, &self.key);
        let mut out = BlockSweep {
            fresh: 0,
            open: 0,
            tail: TAIL_INHERIT,
        };
        let first_fresh = self.classes.wrapping_add(fresh_before);
        let mut prev = if start > 0 { at(start - 1) } else { u64::MAX };
        let mut key = at(start);
        let mut id = if carry_fresh {
            first_fresh.wrapping_sub(1)
        } else {
            (key >> b_bits) as u32
        };
        for i in start..end {
            let next = at(i + 1);
            let starts = key != prev;
            let same_class = key >> b_bits == prev >> b_bits;
            out.fresh += u32::from(starts & same_class);
            let start_id = if same_class {
                first_fresh.wrapping_add(out.fresh).wrapping_sub(1)
            } else {
                (key >> b_bits) as u32
            };
            id = if starts { start_id } else { id };
            let start_tail = if same_class { TAIL_FRESH } else { TAIL_FIRST };
            out.tail = if starts { start_tail } else { out.tail };
            let (x, settled) = (self.pay)(&self.items[i]);
            let settles = (starts & (next != key)) | settled;
            out.open += u32::from(!settles);
            emit(x, id | if settles { SETTLED } else { 0 });
            prev = key;
            key = next;
        }
        out
    }
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` only smuggles a raw base pointer into parallel tasks
// whose writes target disjoint indices; every dereference site carries its
// own SAFETY argument for that disjointness, and the pointee buffer is
// borrowed for the whole parallel region, so it outlives every task.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` across tasks only copies the pointer value —
// no shared-reference method dereferences it, so aliased access to the
// pointee can never originate from the `Sync` impl itself.
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use std::collections::BTreeMap;

    fn check_consistent(keys: &[u64], ranks: &[u32], distinct: usize) {
        assert_eq!(keys.len(), ranks.len());
        if !keys.is_empty() {
            let max_rank = ranks.iter().copied().max().unwrap() as usize + 1;
            assert_eq!(max_rank, distinct, "ranks must be dense in [0, distinct)");
        }
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                assert_eq!(
                    keys[i] == keys[j],
                    ranks[i] == ranks[j],
                    "equality preserved"
                );
                assert_eq!(keys[i] < keys[j], ranks[i] < ranks[j], "order preserved");
            }
        }
    }

    /// Reference order-preserving ranks: the number of distinct smaller
    /// keys, via a sorted, deduplicated copy.
    fn reference_ranks<K: Ord + Copy>(keys: &[K]) -> (Vec<u32>, usize) {
        let mut uniq = keys.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let ranks = keys
            .iter()
            .map(|k| uniq.binary_search(k).unwrap() as u32)
            .collect();
        (ranks, uniq.len())
    }

    #[test]
    fn by_sort_small() {
        let ctx = Ctx::parallel();
        let keys = [30u64, 10, 20, 10, 30, 30];
        let (ranks, distinct) = dense_ranks_by_sort(&ctx, &keys);
        assert_eq!(distinct, 3);
        assert_eq!(ranks, vec![2, 0, 1, 0, 2, 2]);
        check_consistent(&keys, &ranks, distinct);
    }

    #[test]
    fn by_sort_empty() {
        let ctx = Ctx::parallel();
        let (ranks, distinct) = dense_ranks_by_sort(&ctx, &[]);
        assert!(ranks.is_empty());
        assert_eq!(distinct, 0);
    }

    #[test]
    fn pairs_example_from_paper() {
        // Example 3.4: pairs (1,3),(2,3),(4,3),(1,2),(3,4),(2,#),(1,1),(1,3),(2,2),(3,2)
        // sort to (1,1),(1,2),(1,3),(1,3),(2,#),(2,2),(2,3),(3,2),(3,4),(4,3) and
        // get ranks 1,2,3,3,4,5,6,7,8,9 (0-based: 0..8).  We model '#' (blank)
        // as 0 and shift real symbols by +1.
        let ctx = Ctx::parallel();
        let bl = 0u64; // blank
        let pairs: Vec<(u64, u64)> = vec![
            (2, 4),
            (3, 4),
            (5, 4),
            (2, 3),
            (4, 5),
            (3, bl),
            (2, 2),
            (2, 4),
            (3, 3),
            (4, 3),
        ];
        let (ranks, distinct) = dense_ranks_of_pairs(&ctx, &pairs);
        assert_eq!(distinct, 9);
        // (1,3) appears twice (indices 0 and 7) and must share a rank.
        assert_eq!(ranks[0], ranks[7]);
        // Expected ranks from the paper (1-based 1,2,3,3,4,5,6,7,8,9 in pair order
        // (1,1),(1,2),(1,3),(1,3),(2),(2,2),(2,3),(3,2),(3,4),(4,3)):
        // our pair list order maps to 3,6,9,2,8,4,1,3,5 per the paper's resulting string
        // (7,3,6,9,2,8,4,1,3,5)... check a few:
        assert_eq!(ranks[6], 0); // (1,1) is the smallest pair
        assert_eq!(ranks[3], 1); // (1,2)
        assert_eq!(ranks[0], 2); // (1,3)
        assert_eq!(ranks[5], 3); // (2,#) — the padded pair sorts before (2,2)
        assert_eq!(ranks[2], 8); // (4,3) is the largest
        check_consistent(
            &pairs
                .iter()
                .map(|&(a, b)| (a << 32) | b)
                .collect::<Vec<_>>(),
            &ranks,
            distinct,
        );
    }

    /// The fused finish must match the reference ranks — including at the
    /// block boundaries around `SCAN_BLOCK` — and charge the exact pinned
    /// (work, rounds) of the §8 model (radix sort plus boundary, scan and
    /// scatter rounds).
    #[test]
    fn engines_agree_and_charge_identically() {
        let mut rng = StdRng::seed_from_u64(23);
        // (n, pin) as (work, rounds).
        for (n, pin) in [
            (1usize, (4, 4)),
            (2, (30, 8)),
            (SCAN_BLOCK - 1, (26_620, 8)),
            (SCAN_BLOCK, (28_804, 11)),
            (SCAN_BLOCK + 1, (32_914, 13)),
            (40_000, (322_094, 16)),
        ] {
            let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1 + n as u64 / 2)).collect();
            let ctx = Ctx::parallel();
            let got = dense_ranks_by_sort(&ctx, &keys);
            assert_eq!(got, reference_ranks(&keys), "rank mismatch at n={n}");
            assert_eq!(
                (ctx.stats().work, ctx.stats().rounds),
                pin,
                "charges moved at n={n}"
            );
        }
    }

    /// The same pins for the pair path: the word-packed branch, the
    /// key-only record branch (30+30-bit keys), and the comparison-sort
    /// fallback for pairs too wide to pack.
    #[test]
    fn pair_engines_agree_and_charge_identically() {
        let mut rng = StdRng::seed_from_u64(29);
        let narrow: Vec<(u64, u64)> = (0..20_000)
            .map(|_| (rng.gen_range(0..500), rng.gen_range(0..500)))
            .collect();
        // 30+30-bit keys: packed key fits in 64 bits, key + index does not —
        // the middle (wide-record) branch of the packed pair path.
        let mid: Vec<(u64, u64)> = (0..20_000)
            .map(|_| {
                (
                    rng.gen_range(1 << 29..1u64 << 30),
                    rng.gen_range(1 << 29..1u64 << 30),
                )
            })
            .collect();
        let wide: Vec<(u64, u64)> = (0..5_000)
            .map(|_| {
                (
                    rng.gen_range(0..u64::MAX / 2),
                    rng.gen_range(0..u64::MAX / 2),
                )
            })
            .collect();
        // (pairs, pin) as (work, rounds).
        for (pairs, pin) in [
            (&narrow, (222_071, 17)),
            (&mid, (312_327, 29)),
            (&wide, (80_000, 15)),
        ] {
            let ctx = Ctx::parallel();
            assert_eq!(dense_ranks_of_pairs(&ctx, pairs), reference_ranks(pairs));
            assert_eq!((ctx.stats().work, ctx.stats().rounds), pin);
        }
    }

    /// The `_into` variants stop allocating once the workspace is warm.
    #[test]
    fn into_variant_reuses_buffers_across_rounds() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| i % 977).collect();
        let ctx = Ctx::parallel();
        let mut ranks = Vec::new();
        let _ = dense_ranks_by_sort_into(&ctx, &keys, &mut ranks); // warm-up
        let before = ctx.workspace().stats();
        for _ in 0..8 {
            let distinct = dense_ranks_by_sort_into(&ctx, &keys, &mut ranks);
            assert_eq!(distinct, 977);
        }
        let after = ctx.workspace().stats();
        assert_eq!(
            after.misses, before.misses,
            "warm dense-rank rounds must not allocate fresh buffers"
        );
    }

    proptest! {
        #[test]
        fn sort_ranks_match_reference(keys in proptest::collection::vec(0u64..200, 0..1500)) {
            let ctx = Ctx::parallel().with_grain(64);
            prop_assert_eq!(dense_ranks_by_sort(&ctx, &keys), reference_ranks(&keys));
        }
    }

    /// The sequential reference of [`refine_classes_into`]: group the listed
    /// nodes of unsettled classes by (class, target class) in key order; the
    /// first subclass of a class keeps its id, later ones take fresh ids in
    /// order, and a subclass settles when it has one member or its target
    /// class is settled.  Returns the new class words and the round's
    /// counts.
    fn reference_refine(
        list: &[u32],
        jump: &[u32],
        lab: &[u32],
        classes: u32,
    ) -> (Vec<u32>, Refinement) {
        let mut groups: BTreeMap<(u32, u32), (bool, Vec<u32>)> = BTreeMap::new();
        for &x in list {
            let w = lab[x as usize];
            if w & SETTLED != 0 {
                continue;
            }
            let t = lab[jump[x as usize] as usize];
            let group = groups.entry((w, t & !SETTLED)).or_default();
            group.0 = t & SETTLED != 0;
            group.1.push(x);
        }
        let mut out = lab.to_vec();
        let (mut fresh, mut open, mut prev_class) = (classes, 0, None);
        for (&(class, _), (target_settled, members)) in &groups {
            let id = if prev_class == Some(class) {
                fresh += 1;
                fresh - 1
            } else {
                class
            };
            prev_class = Some(class);
            let settles = members.len() == 1 || *target_settled;
            if !settles {
                open += members.len();
            }
            for &x in members {
                out[x as usize] = if settles { id | SETTLED } else { id };
            }
        }
        let counts = Refinement {
            classes: fresh,
            open,
        };
        (out, counts)
    }

    /// A round's input over `n` nodes: `k` classes, about a third of them
    /// settled, random targets, and a list of `list_len` distinct nodes in
    /// increasing order.
    fn random_round(
        n: usize,
        k: u32,
        list_len: usize,
        seed: u64,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let settled: Vec<bool> = (0..k).map(|_| rng.gen_range(0..3) == 0).collect();
        let lab: Vec<u32> = (0..n)
            .map(|_| {
                let c = rng.gen_range(0..k);
                if settled[c as usize] {
                    c | SETTLED
                } else {
                    c
                }
            })
            .collect();
        let jump: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
        let mut list: Vec<u32> = (0..n as u32).collect();
        list.shuffle(&mut rng);
        list.truncate(list_len);
        list.sort_unstable();
        (list, jump, lab)
    }

    /// Runs [`refine_classes_into`] and checks its class words and counts
    /// against the reference.
    fn check_refine(ctx: &Ctx, list: &[u32], jump: &[u32], lab: &[u32], classes: u32) {
        let (want_lab, want) = reference_refine(list, jump, lab, classes);
        let mut got_lab = lab.to_vec();
        let listed = if list.iter().copied().eq(0..list.len() as u32) {
            Listed::Prefix(list.len())
        } else {
            Listed::Nodes(list)
        };
        let got = refine_classes_into(ctx, listed, jump, &mut got_lab, classes);
        assert_eq!(got, want, "counts, list of {}", list.len());
        assert!(got_lab == want_lab, "class words, list of {}", list.len());
    }

    #[test]
    fn refine_matches_the_sequential_reference_around_block_edges() {
        let b = SCAN_BLOCK;
        for (case, list_len) in [b - 1, b, b + 1, 3 * b + 5].into_iter().enumerate() {
            let n = list_len + list_len / 3;
            // Few large classes (big groups that split across blocks) and
            // many small ones (singletons that settle at once).
            for k in [7, n as u32 / 8] {
                let (list, jump, lab) = random_round(n, k, list_len, 31 + case as u64);
                let prefix: Vec<u32> = (0..list_len as u32).collect();
                for ctx in [Ctx::parallel(), Ctx::parallel().with_grain(64)] {
                    check_refine(&ctx, &list, &jump, &lab, k);
                    check_refine(&ctx, &prefix, &jump, &lab, k);
                }
            }
        }
    }

    /// Class words too wide for a packed key word with its node id (over
    /// `2^21` nodes and classes) take the record path.
    #[test]
    fn refine_takes_the_record_path_for_wide_keys() {
        let n = (1 << 21) + 1;
        let classes = 1 << 21;
        let mut rng = StdRng::seed_from_u64(37);
        let (list, mut jump, mut lab) = random_round(3000, 40, 2000, 41);
        // Spread the nodes over the wide array, classes near the top.
        let spread = |x: u32| x * 699;
        let mut wide_lab = vec![0u32; n];
        let mut wide_jump: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
        for x in 0..3000u32 {
            let w = lab[x as usize];
            lab[x as usize] = (w & SETTLED) | (classes - 1 - (w & !SETTLED));
            jump[x as usize] = spread(jump[x as usize]);
            wide_lab[spread(x) as usize] = lab[x as usize];
            wide_jump[spread(x) as usize] = jump[x as usize];
        }
        let wide_list: Vec<u32> = list.iter().map(|&x| spread(x)).collect();
        let ctx = Ctx::parallel().with_tracing();
        check_refine(&ctx, &wide_list, &wide_jump, &wide_lab, classes);
        let snap = ctx.trace().snapshot();
        assert!(!snap.spans_named("radix_sort_recs").is_empty());
    }

    /// Miri target: the class-word pointer writes of the blocked finish.
    #[test]
    fn miri_refine_classes_writes_disjoint_slots() {
        let n = SCAN_BLOCK + 3;
        let (list, jump, lab) = random_round(n, 5, n, 43);
        check_refine(&Ctx::parallel(), &list, &jump, &lab, 5);
    }

    /// Miri target: the rank-scatter pointer writes, on a key set whose
    /// dense ranks are known in closed form (`gcd(31, 53) = 1`, so every
    /// residue occurs and rank == key value).
    #[test]
    fn miri_dense_ranks_by_sort() {
        let keys: Vec<u64> = (0..1500u64).map(|i| (i * 31) % 53).collect();
        let ctx = Ctx::parallel();
        let (ranks, distinct) = dense_ranks_by_sort(&ctx, &keys);
        assert_eq!(distinct, 53);
        for (r, k) in ranks.iter().zip(&keys) {
            assert_eq!(u64::from(*r), *k);
        }
    }
}
