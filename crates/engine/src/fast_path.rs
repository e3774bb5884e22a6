//! The raw-speed routed walker (DESIGN.md §15): executes a fast-path
//! [`RoutePlan`] — the query-shape prefix extracted at compile time —
//! with `memmem`-led direct seeks instead of block-by-block structural
//! classification.
//!
//! The walker keeps one frame per plan step on an explicit stack; each
//! frame corresponds to one container on the current match path, entered
//! with its opening character already consumed:
//!
//! * a **label step** issues [`StructuralIterator::seek_direct_member`]:
//!   SIMD substring search jumps between candidate occurrences of
//!   `"label"` while a two-bracket depth scan tracks the container
//!   boundary; quote/escape-aware validation declines lookalikes inside
//!   string values (the closing quote of a genuine label reads *outside*
//!   any string under the prefix-XOR convention — an escaped-quote
//!   lookalike reads as inside). After the single possible match, the
//!   frame fast-forwards to the container's end — the same move the
//!   general loop's sibling skip makes for unitary states;
//! * a **wildcard step** iterates the container's children by structural
//!   events only: with commas and colons toggled off, atomic children
//!   are invisible, which is sound because the route analyzer only emits
//!   wildcard steps whose target state cannot accept;
//! * the **tail** — everything past the analyzed prefix — runs through
//!   the general [`run_element`] on the same iterator, so results are
//!   byte-identical with the general route by construction.
//!
//! Every decision here mirrors a `main_loop` decision on the same
//! document (see the step conditions in `rsq_query::route`); the fast
//! path only changes *how* the bytes in between are crossed. Like the
//! `memmem` head start, tail sub-runs enforce `max_depth` relative to
//! the matched value rather than the document root.

use crate::error::{Interrupt, LimitKind};
use crate::main_loop::run_element;
use crate::sink::Sink;
use crate::EngineOptions;
use rsq_classify::{BracketType, CandidateMemo, DirectSeek, Structural, StructuralIterator};
use rsq_memmem::Finder;
use rsq_obs::{ProfileStage, Recorder, SkipTechnique};
use rsq_query::{Automaton, PlanStep, RoutePlan};
use rsq_simd::Simd;

/// What the frame at a given plan step is currently doing. The frame's
/// index in the walker stack *is* its step index, so the variants carry
/// no data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Frame {
    /// Label step: seeking the container's single relevant member.
    Seek,
    /// Wildcard step: iterating the container's composite children.
    Iter,
    /// The label step's member was found and handled; fast-forward to
    /// the container's closing character (sibling skipping, §3.3).
    AwaitExit,
}

impl Frame {
    fn for_step(step: &PlanStep) -> Frame {
        match step {
            PlanStep::Label { .. } => Frame::Seek,
            PlanStep::Wild { .. } => Frame::Iter,
        }
    }
}

/// Runs a routed query over a whole document. The caller guarantees
/// `plan.is_fast()` and that the options keep every skipping technique
/// the plan's parity argument relies on enabled (see
/// `Engine::fast_path_eligible`).
pub(crate) fn run_fast_path(
    automaton: &Automaton,
    plan: &RoutePlan,
    options: &EngineOptions,
    simd: Simd,
    input: &[u8],
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    // One finder per label step, built once per run (they borrow the
    // plan's needles).
    let finders: Vec<Option<Finder<'_>>> = plan
        .steps
        .iter()
        .map(|s| match s {
            PlanStep::Label { needle, .. } => Some(Finder::with_simd(needle, simd)),
            PlanStep::Wild { .. } => None,
        })
        .collect();

    // One memmem frontier memo per label step: repeated seeks over
    // sibling containers that lack the label must not re-scan the gap to
    // the next far-away occurrence (see `CandidateMemo`).
    let mut memos: Vec<CandidateMemo> = vec![CandidateMemo::default(); plan.steps.len()];

    let mut it = StructuralIterator::new(input, simd);
    // Fold the iterator's classifier counters before propagating an
    // interrupt: an early sink stop maps to `Ok` upstream and must keep
    // its stats.
    let result = walk(
        automaton, plan, &finders, &mut memos, options, &mut it, sink, rec,
    );
    rec.classifier(&it.counters());
    result
}

#[allow(clippy::too_many_arguments)] // internal: mirrors the other drivers' shape
fn walk(
    automaton: &Automaton,
    plan: &RoutePlan,
    finders: &[Option<Finder<'_>>],
    memos: &mut [CandidateMemo],
    options: &EngineOptions,
    it: &mut StructuralIterator<'_>,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    debug_assert!(!plan.steps.is_empty(), "general routes never reach here");
    // Root handling mirrors `run_document`: the plan is non-empty, so
    // the initial state is non-accepting and an atomic document cannot
    // match.
    let Some(first) = it.next() else {
        return Ok(());
    };
    rec.event(first.position());
    let Structural::Opening(bracket, _) = first else {
        // Malformed document (starts with a closer/comma/colon).
        return Ok(());
    };
    if matches!(plan.steps[0], PlanStep::Label { .. }) && bracket == BracketType::Bracket {
        // A label step cannot match inside an array, and nothing follows
        // the root container: done without scanning a byte.
        rec.skip_span(SkipTechnique::Exit, it.position(), it.input().len());
        return Ok(());
    }

    // `stack[k]` is the frame for plan step `k`; its container's opening
    // has been consumed and the iterator sits inside it.
    let mut stack: Vec<Frame> = Vec::with_capacity(plan.steps.len());
    stack.push(Frame::for_step(&plan.steps[0]));
    rec.depth(1);
    if stack[0] == Frame::Iter {
        rec.leaf_skip();
    }

    while let Some(&frame) = stack.last() {
        let step = stack.len() - 1;
        let last = step + 1 == plan.steps.len();
        match frame {
            Frame::Seek => {
                let PlanStep::Label { needle, .. } = &plan.steps[step] else {
                    // PANIC-OK: Frame::for_step builds Seek only from PlanStep::Label, so the step kind cannot disagree with the frame
                    unreachable!("Seek frames only exist for label steps");
                };
                // PANIC-OK: run_fast_path builds one Some(finder) per Label step, indexed in lockstep with plan.steps
                let finder = finders[step].as_ref().expect("finder per label step");
                // An atomic member value can only match when this is the
                // final step and finding the member is itself the match.
                let accept_atomic = last && plan.tail_accepting;
                rec.label_seek();
                let seek_from = it.position();
                let t = rec.clock();
                let mut declined = 0u64;
                let outcome = it.seek_direct_member(
                    finder,
                    needle,
                    &mut memos[step],
                    accept_atomic,
                    &mut declined,
                );
                rec.stage_ns(ProfileStage::Classify, t);
                rec.skip_span(SkipTechnique::Label, seek_from, it.position());
                for _ in 0..declined {
                    rec.memmem_decline();
                }
                match outcome {
                    DirectSeek::Composite { pos } => {
                        rec.memmem_jump();
                        let Some(ev) = it.next() else { break };
                        rec.event(ev.position());
                        debug_assert_eq!(ev.position(), pos);
                        let Structural::Opening(bracket, _) = ev else {
                            break; // defensive: the seek left an opening pending
                        };
                        // The single possible member of this container is
                        // handled; on return, skip its remaining siblings.
                        // PANIC-OK: the enclosing while-let just matched stack.last() as Some, and nothing pops between there and here
                        *stack.last_mut().expect("frame present") = Frame::AwaitExit;
                        if last {
                            enter_tail(automaton, plan, options, it, bracket, pos, sink, rec)?;
                        } else {
                            descend(plan, options, it, &mut stack, bracket, pos, rec)?;
                        }
                    }
                    DirectSeek::Atomic { pos } => {
                        rec.memmem_jump();
                        debug_assert!(accept_atomic);
                        sink.record(pos)?;
                        rec.matched();
                        // PANIC-OK: the enclosing while-let just matched stack.last() as Some, and nothing pops between there and here
                        *stack.last_mut().expect("frame present") = Frame::AwaitExit;
                    }
                    DirectSeek::Boundary => {
                        // The container closed; consume the pending
                        // closing character and return to the parent.
                        let Some(ev) = it.next() else { break };
                        rec.event(ev.position());
                        stack.pop();
                    }
                    DirectSeek::End => break, // malformed: ran off the input
                }
            }
            Frame::Iter => {
                let gap_from = it.position();
                let Some(ev) = it.next() else { break };
                rec.event(ev.position());
                // Atomic children crossed in one step (commas and colons
                // are toggled off).
                rec.skip_span(SkipTechnique::Leaf, gap_from, ev.position());
                match ev {
                    Structural::Opening(bracket, pos) => {
                        if last {
                            enter_tail(automaton, plan, options, it, bracket, pos, sink, rec)?;
                        } else {
                            descend(plan, options, it, &mut stack, bracket, pos, rec)?;
                        }
                    }
                    Structural::Closing(..) => {
                        stack.pop();
                    }
                    // Commas and colons are toggled off in walker-owned
                    // containers; ignore strays defensively.
                    Structural::Colon(_) | Structural::Comma(_) => {}
                }
            }
            Frame::AwaitExit => {
                // When every frame below is also just waiting out its
                // container, nothing anywhere in the rest of the
                // document can match: stop without scanning it (the
                // remainder is attributed to the `exit` elision bucket).
                if stack.iter().all(|f| *f == Frame::AwaitExit) {
                    rec.skip_span(SkipTechnique::Exit, it.position(), it.input().len());
                    break;
                }
                // Sibling skipping (§3.3): the unitary label was found;
                // labels do not repeat among siblings, so fast-forward to
                // the enclosing object's end. The closing brace is
                // delivered as the next event and consumed here.
                rec.sibling_skip();
                let from = it.position();
                let t = rec.clock();
                let close = it.fast_forward_to_close(BracketType::Brace);
                rec.stage_ns(ProfileStage::Classify, t);
                let end = close.unwrap_or_else(|| it.position());
                rec.skip_span(SkipTechnique::Sibling, from, end);
                let Some(ev) = it.next() else { break };
                rec.event(ev.position());
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Enters the child container opened at `pos` as the next plan step:
/// pushes its frame, except that a label step entered on an *array* is
/// skipped whole — arrays hold no labelled members, so nothing below can
/// match (the general loop child-skips each element to the same effect,
/// and the single-pair depth scan of `seek_direct_member` relies on the
/// container being an object). The walker's own nesting is checked
/// against `max_depth` exactly like the general loop checks examined
/// openings.
#[allow(clippy::too_many_arguments)] // internal: mirrors the other drivers' shape
fn descend(
    plan: &RoutePlan,
    options: &EngineOptions,
    it: &mut StructuralIterator<'_>,
    stack: &mut Vec<Frame>,
    bracket: BracketType,
    pos: usize,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if matches!(plan.steps[stack.len()], PlanStep::Label { .. }) && bracket == BracketType::Bracket
    {
        rec.child_skip();
        let t = rec.clock();
        let close = it.skip_past_close(bracket);
        rec.stage_ns(ProfileStage::Classify, t);
        let end = close.map_or_else(|| it.position(), |c| c + 1);
        rec.skip_span(SkipTechnique::Child, pos + 1, end);
        return Ok(());
    }
    if stack.len() as u32 >= options.max_depth {
        return Err(Interrupt::Limit(LimitKind::Depth));
    }
    let frame = Frame::for_step(&plan.steps[stack.len()]);
    stack.push(frame);
    rec.depth(stack.len() as u32);
    if frame == Frame::Iter {
        rec.leaf_skip();
    }
    Ok(())
}

/// Handles a composite value entering the tail state: record it if the
/// tail accepts, then either run the general loop over the subtree (when
/// matches below are still possible) or skip it outright. The value's
/// opening character has already been consumed.
#[allow(clippy::too_many_arguments)]
fn enter_tail(
    automaton: &Automaton,
    plan: &RoutePlan,
    options: &EngineOptions,
    it: &mut StructuralIterator<'_>,
    bracket: BracketType,
    pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if plan.tail_accepting {
        sink.record(pos)?;
        rec.matched();
    }
    if plan.tail_run {
        let sub = run_element(
            it,
            automaton,
            options,
            plan.tail_state,
            bracket,
            pos,
            sink,
            &mut *rec,
        );
        // The sub-run leaves the comma/colon toggles wherever its last
        // container put them; the walker's own phases need them off.
        it.set_toggles(false, false);
        sub
    } else {
        // Nothing below the tail can match (all successor states are
        // rejecting): skip the subtree like the general loop's child
        // skip would.
        rec.child_skip();
        let t = rec.clock();
        let close = it.skip_past_close(bracket);
        rec.stage_ns(ProfileStage::Classify, t);
        let end = close.map_or_else(|| it.position(), |c| c + 1);
        rec.skip_span(SkipTechnique::Child, pos + 1, end);
        Ok(())
    }
}
