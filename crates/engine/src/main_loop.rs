//! The main algorithm (§3.4): depth-stack DFA simulation over the
//! structural iterator, with leaf, child, and sibling skipping.

use crate::depth_stack::DepthStack;
use crate::error::{Interrupt, LimitKind};
use crate::sink::Sink;
use crate::util::{first_nonws_at, value_start_after};
use crate::EngineOptions;
use rsq_classify::{BracketType, LabelSeek, Structural, StructuralIterator};
use rsq_obs::{ProfileStage, Recorder, SkipTechnique};
use rsq_query::{Automaton, PathSymbol, StateId};
use rsq_stackvec::StackVec;

/// A 1-bit-per-level record of container types along the current path.
///
/// The paper's pseudocode approximates the container type after a pop
/// (`toggle(state, '{')`); we instead track it exactly, at one bit per
/// depth level — negligible memory, and required for idiomatic wildcard
/// semantics in arrays nested under objects (and vice versa).
#[derive(Debug, Default)]
struct TypeStack {
    words: StackVec<u64, 8>,
}

impl TypeStack {
    fn set(&mut self, depth: u32, bracket: BracketType) {
        let word = (depth / 64) as usize;
        let bit = depth % 64;
        while self.words.len() <= word {
            self.words.push(0);
        }
        let w = &mut self.words.as_mut_slice()[word];
        match bracket {
            BracketType::Bracket => *w |= 1 << bit,
            BracketType::Brace => *w &= !(1 << bit),
        }
    }

    fn get(&self, depth: u32) -> BracketType {
        let word = (depth / 64) as usize;
        let bit = depth % 64;
        if self.words.as_slice().get(word).copied().unwrap_or(0) >> bit & 1 == 1 {
            BracketType::Bracket
        } else {
            BracketType::Brace
        }
    }
}

/// Per-depth array entry counters, used when the automaton distinguishes
/// specific array indices (`[n]` selectors — the paper's §6 future work).
/// Counters are only maintained exactly at levels whose state forces comma
/// classification (`Automaton::needs_indices`); elsewhere they may be
/// stale, which is harmless because all entries then share the index
/// fallback transition.
#[derive(Debug, Default)]
struct IndexStack {
    counters: StackVec<u32, 32>,
}

impl IndexStack {
    #[inline]
    fn reset(&mut self, depth: u32) {
        let d = depth as usize;
        while self.counters.len() <= d {
            self.counters.push(0);
        }
        self.counters.as_mut_slice()[d] = 0;
    }

    #[inline]
    fn increment(&mut self, depth: u32) {
        if let Some(c) = self.counters.as_mut_slice().get_mut(depth as usize) {
            *c += 1;
        }
    }

    #[inline]
    fn get(&self, depth: u32) -> u64 {
        u64::from(
            self.counters
                .as_slice()
                .get(depth as usize)
                .copied()
                .unwrap_or(0),
        )
    }
}

/// How comma events at the current level report array-entry matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CommaMode {
    /// Entries cannot match in one step: nothing to report.
    Off,
    /// Every entry matches (the index fallback is accepting).
    All,
    /// Specific indices match: consult the automaton per entry.
    Indexed,
}

/// Applies the state-driven toggle policy (§3.4): commas in arrays whose
/// entries can match (or must be counted for `[n]` selectors), colons in
/// objects whose members can match. Returns the comma reporting mode,
/// cached so the hot comma path needs no automaton lookups, and whether
/// leaf skipping is active in the current container (used by Tier C
/// byte-span accounting: while active, inter-event gaps are bytes the
/// technique crossed without event delivery).
#[inline]
fn apply_toggles(
    it: &mut StructuralIterator<'_>,
    automaton: &Automaton,
    options: &EngineOptions,
    state: StateId,
    container: BracketType,
    rec: &mut impl Recorder,
) -> (CommaMode, bool) {
    let mode = if container != BracketType::Bracket {
        CommaMode::Off
    } else if automaton.needs_indices(state) {
        CommaMode::Indexed
    } else if automaton.is_fallback_accepting(state) {
        CommaMode::All
    } else {
        CommaMode::Off
    };
    if !options.skip_leaves {
        // Leaf skipping disabled: classify every comma and colon, always.
        it.set_toggles(true, true);
        return (mode, false);
    }
    let leaf_active = match container {
        BracketType::Bracket => {
            let commas = mode != CommaMode::Off;
            it.set_toggles(commas, false);
            if !commas {
                // Atomic array entries at this level are skipped over.
                rec.leaf_skip();
            }
            !commas
        }
        BracketType::Brace => {
            let colons = automaton.is_object_accepting(state);
            it.set_toggles(false, colons);
            if !colons {
                // Atomic member values at this level are skipped over.
                rec.leaf_skip();
            }
            !colons
        }
    };
    (mode, leaf_active)
}

/// The corner case of §3.4: the first entry of an array is not preceded by
/// a comma, so an atomic first entry must be matched when the array opens.
#[inline]
fn try_match_first_item(
    it: &mut StructuralIterator<'_>,
    automaton: &Automaton,
    state: StateId,
    open_pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if !automaton.is_accepting(automaton.transition(state, PathSymbol::Index(0))) {
        return Ok(());
    }
    // A structural byte after the `[` means the first entry is composite
    // (handled at its Opening) or the array is empty.
    if let Some(v) = value_start_after(it.input(), open_pos) {
        sink.record(v)?;
        rec.matched();
    }
    Ok(())
}

/// Enforces [`EngineOptions::max_label_bytes`] on a label the automaton is
/// about to examine. Only examined labels are guarded: labels the engine
/// skips over (fast-forwarded subtrees, toggled-off colons) cost nothing
/// and are not measured.
#[inline]
fn check_label(options: &EngineOptions, label: Option<&[u8]>) -> Result<(), Interrupt> {
    if let (Some(limit), Some(label)) = (options.max_label_bytes, label) {
        if label.len() > limit {
            return Err(Interrupt::Limit(LimitKind::LabelBytes));
        }
    }
    Ok(())
}

/// Runs the DFA over one element: the opening character at `root_pos` (of
/// type `root_bracket`) has already been consumed from `it`, and the
/// automaton is in `state0` — the state *after* the transition into this
/// element. Returns when the element's closing character has been
/// consumed (or at EOF on malformed input).
///
/// Used both for whole documents (element = root, `state0` = initial
/// state) and for skip-to-label sub-runs (element = the value of a matched
/// label, `state0` = the target of the label transition).
///
/// Unwinds with an [`Interrupt`] when the sink declines a match or a
/// resource limit trips. `max_depth` is enforced relative to the element's
/// root — exact for whole-document runs; for skip-to-label sub-runs it
/// bounds nesting below the matched value (the `memmem` jump does not
/// track the candidate's absolute depth).
#[allow(clippy::too_many_arguments)] // internal: one slot over, a context struct would obscure the hot path
pub(crate) fn run_element(
    it: &mut StructuralIterator<'_>,
    automaton: &Automaton,
    options: &EngineOptions,
    state0: StateId,
    root_bracket: BracketType,
    root_pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let mut state = state0;
    let mut depth: u32 = 1;
    let mut stack = DepthStack::new();
    let mut types = TypeStack::default();
    let mut indices = IndexStack::default();
    types.set(1, root_bracket);
    if root_bracket == BracketType::Bracket {
        indices.reset(1);
    }
    rec.depth(depth);

    let (mut comma_mode, mut leaf_active) =
        apply_toggles(it, automaton, options, state, root_bracket, rec);
    if root_bracket == BracketType::Bracket {
        try_match_first_item(it, automaton, state, root_pos, sink, rec)?;
    }

    // §1.3 of the paper: "the cost of switching often exceeds the gain…
    // we do not switch whenever a state change occurs, but only when the
    // expected benefits justify it". The label-seek classifier is engaged
    // only after this many consecutive no-op openings in the same waiting
    // state — small regions stay on the ordinary event loop.
    const SEEK_AFTER_STALE_OPENINGS: u32 = 3;
    let mut waiting_streak: u32 = 0;

    loop {
        // Skipping to a label within the element (§4.5 extension): in a
        // waiting state that cannot accept in one step, every event the
        // seek absorbs is a no-op for the automaton, so fast-forward to
        // the next candidate label or to the depth-stack pop boundary.
        if options.label_seek
            && waiting_streak >= SEEK_AFTER_STALE_OPENINGS
            && automaton.is_waiting(state)
            && automaton.is_internal(state)
        {
            // A waiting state has exactly one label transition by
            // construction; if the automaton violates that invariant, fall
            // back to the ordinary event loop instead of panicking, and
            // reset the streak so the seek is not retried every event.
            if let Some((needle, _)) = automaton.single_explicit_transition(state) {
                let boundary = stack.top_depth().map_or(1, |d| d + 1);
                let levels = depth.saturating_sub(boundary);
                rec.label_seek();
                let seek_from = it.position();
                let t = rec.clock();
                let outcome = it.seek_label(needle, levels);
                rec.stage_ns(ProfileStage::Classify, t);
                rec.skip_span(SkipTechnique::Label, seek_from, it.position());
                match outcome {
                    LabelSeek::Candidate { depth_delta } => {
                        depth = (i64::from(depth) + i64::from(depth_delta)) as u32;
                        if depth > options.max_depth {
                            return Err(Interrupt::Limit(LimitKind::Depth));
                        }
                        rec.depth(depth);
                        // The candidate's parent is necessarily an object.
                        types.set(depth, BracketType::Brace);
                    }
                    LabelSeek::Boundary => {
                        depth -= levels;
                    }
                    LabelSeek::End => break,
                }
            } else {
                waiting_streak = 0;
            }
        }

        let gap_from = it.position();
        let Some(event) = it.next() else { break };
        rec.event(event.position());
        if leaf_active {
            // Bytes crossed in one step because commas/colons were
            // toggled off (atomic members elided by leaf skipping).
            rec.skip_span(SkipTechnique::Leaf, gap_from, event.position());
        }
        match event {
            Structural::Opening(bracket, pos) => {
                let label = it.label_before(pos);
                check_label(options, label)?;
                let symbol = match label {
                    Some(label) => PathSymbol::Label(label),
                    None => PathSymbol::Index(indices.get(depth)),
                };
                let target = automaton.transition(state, symbol);
                if automaton.is_rejecting(target) && options.skip_children {
                    // Skipping children (§3.3): nothing below can match.
                    rec.child_skip();
                    let t = rec.clock();
                    let close = it.skip_past_close(bracket);
                    rec.stage_ns(ProfileStage::Classify, t);
                    // Elided: everything after the (delivered) opening
                    // through the consumed closing character.
                    let end = close.map_or_else(|| it.position(), |c| c + 1);
                    rec.skip_span(SkipTechnique::Child, pos + 1, end);
                    continue;
                }
                if depth >= options.max_depth {
                    return Err(Interrupt::Limit(LimitKind::Depth));
                }
                if target != state || !options.sparse_stack {
                    stack.push(state, depth);
                    state = target;
                    waiting_streak = 0;
                } else {
                    waiting_streak += 1;
                }
                depth += 1;
                rec.depth(depth);
                types.set(depth, bracket);
                if bracket == BracketType::Bracket {
                    indices.reset(depth);
                }
                if automaton.is_accepting(state) {
                    sink.record(pos)?;
                    rec.matched();
                }
                (comma_mode, leaf_active) =
                    apply_toggles(it, automaton, options, state, bracket, &mut *rec);
                if bracket == BracketType::Bracket {
                    try_match_first_item(it, automaton, state, pos, sink, &mut *rec)?;
                }
            }
            Structural::Closing(..) => {
                if depth == 0 {
                    break; // malformed: more closers than openers
                }
                depth -= 1;
                let before_pop = state;
                if let Some(restored) = stack.pop_if_at_depth(depth) {
                    state = restored;
                    waiting_streak = 0;
                    if depth >= 1
                        && options.skip_siblings
                        && automaton.is_unitary(state)
                        && !automaton.is_rejecting(before_pop)
                    {
                        // Skipping siblings (§3.3): the unitary label was
                        // found; labels do not repeat among siblings, so
                        // fast-forward to the enclosing object's end. The
                        // closing brace is delivered as the next event.
                        rec.sibling_skip();
                        let from = it.position();
                        let t = rec.clock();
                        let close = it.fast_forward_to_close(BracketType::Brace);
                        rec.stage_ns(ProfileStage::Classify, t);
                        // The closing brace is left pending (and will be
                        // delivered), so the span excludes it.
                        let end = close.unwrap_or_else(|| it.position());
                        rec.skip_span(SkipTechnique::Sibling, from, end);
                        continue;
                    }
                }
                if depth == 0 {
                    break; // the element this run was started on has closed
                }
                (comma_mode, leaf_active) =
                    apply_toggles(it, automaton, options, state, types.get(depth), &mut *rec);
            }
            Structural::Colon(pos) => {
                // Composite member values are handled at their Opening; a
                // direct byte probe is cheaper than peeking the iterator.
                let Some(v) = value_start_after(it.input(), pos) else {
                    continue;
                };
                let label = it.label_before(pos);
                check_label(options, label)?;
                let target = automaton.transition_label(state, label);
                if automaton.is_accepting(target) {
                    sink.record(v)?;
                    rec.matched();
                }
                if options.skip_siblings
                    && automaton.is_unitary(state)
                    && !automaton.is_rejecting(target)
                {
                    // The unitary label matched an atomic value; skip the
                    // remaining siblings.
                    rec.sibling_skip();
                    let from = it.position();
                    let t = rec.clock();
                    let close = it.fast_forward_to_close(BracketType::Brace);
                    rec.stage_ns(ProfileStage::Classify, t);
                    let end = close.unwrap_or_else(|| it.position());
                    rec.skip_span(SkipTechnique::Sibling, from, end);
                }
            }
            Structural::Comma(pos) => {
                match comma_mode {
                    CommaMode::Off => {
                        // Commas can still arrive with leaf skipping
                        // disabled; keep entry counters exact in arrays.
                        if types.get(depth) == BracketType::Bracket {
                            indices.increment(depth);
                        }
                    }
                    CommaMode::All => {
                        indices.increment(depth);
                        if let Some(v) = value_start_after(it.input(), pos) {
                            sink.record(v)?;
                            rec.matched();
                        }
                    }
                    CommaMode::Indexed => {
                        indices.increment(depth);
                        let target =
                            automaton.transition(state, PathSymbol::Index(indices.get(depth)));
                        if automaton.is_accepting(target) {
                            if let Some(v) = value_start_after(it.input(), pos) {
                                sink.record(v)?;
                                rec.matched();
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs a query over a whole document (without skip-to-label).
pub(crate) fn run_document(
    it: &mut StructuralIterator<'_>,
    automaton: &Automaton,
    options: &EngineOptions,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let initial = automaton.initial_state();
    match it.next() {
        Some(Structural::Opening(bracket, pos)) => {
            rec.event(pos);
            if automaton.is_accepting(initial) {
                sink.record(pos)?; // query `$` on a composite document
                rec.matched();
            }
            run_element(it, automaton, options, initial, bracket, pos, sink, rec)?;
        }
        Some(other) => {
            // Malformed document (starts with a closer/comma/colon).
            rec.event(other.position());
        }
        None => {
            // Atomic document: only `$` can match it.
            if automaton.is_accepting(initial) {
                if let Some(v) = first_nonws_at(it.input(), 0) {
                    sink.record(v)?;
                    rec.matched();
                }
            }
        }
    }
    Ok(())
}
