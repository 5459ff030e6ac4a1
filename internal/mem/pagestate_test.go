package mem

import (
	"fmt"
	"strings"
	"testing"
)

// This file is an exhaustive checker for the page-state protocol. It models
// one page of two words (plus, when a scenario stores through an alias, the
// state word of an alias page over it) and runs two or three operations on it
// in every interleaving of their atomic steps. Each step applies the same
// transition functions region.go applies through Region.step, in the order
// the operation takes them there; a model operation must change whenever its
// Region method changes order. States that different interleavings reach
// alike are explored once, which is what keeps the search exhaustive and
// small.
//
// Two parts of the protocol are left out. The skip summary (zeroSum) is a
// hint in both directions, so the model takes it as always set: the full
// pass confirms every page's skip bits, which only adds skips. The
// dirtied-region list is not modelled: ClearSoftDirty and the dirty passes
// visit every page, so the listing's own order is left to the comments on
// store and clearSoftDirty and to TestDirtySetVsClearOrdering.

// pmOp is one operation of the model.
type pmOp int8

const (
	opStoreHeap      pmOp = iota // Region.store of a heap-range word
	opStorePlain                 // Region.store of a non-heap word
	opAliasStore                 // Region.store of a heap-range word through the alias
	opZero                       // Region.zeroRange over the whole page
	opFullScan                   // the full pass: skip probes, then the flagging ScanPageWords
	opFullScanTake               // the mostly-concurrent full pass: skip probes, TestClearPageDirty, the flagging ScanPageWords
	opPreClean                   // a pre-clean round: TakeDirtySummaryWord, TestClearPageDirty, ScanPageWords
	opClearSoftDirty             // Region.clearSoftDirty
	opCommit                     // Region.commit of the page
	opDecommit                   // Region.decommit of the page, which zeroes and drops the backing
	pmOps
)

var pmOpNames = [pmOps]string{"store-heap", "store-plain", "alias-store", "zero", "full-scan", "full-scan-take", "pre-clean", "clear-soft-dirty", "commit", "decommit"}

// pmStepName names step pc of op, for failure traces.
func pmStepName(op pmOp, pc int8) string {
	zero := []string{"known-zero check", "lock", "takeDirty", "clear", "publishKnownZero", "unlock"}
	scan := []string{"readable check", "lock", "load word 0", "load word 1", "unlock"}
	var steps []string
	switch op {
	case opStoreHeap, opStorePlain, opAliasStore:
		steps = []string{"protection check", "word store", "postStore", "summary bit", "retireSkip"}
	case opZero:
		steps = zero
	case opFullScan:
		steps = append([]string{"known-zero check", "pointer-free check"}, scan...)
	case opFullScanTake:
		steps = append([]string{"known-zero check", "pointer-free check", "takeDirty"}, scan...)
	case opPreClean:
		steps = append([]string{"take summary", "takeDirty"}, scan...)
	case opClearSoftDirty:
		steps = []string{"wipe summary", "takeDirty"}
	case opCommit:
		steps = append([]string{"commitState"}, zero...)
	case opDecommit:
		steps = append(append([]string{"resetState"}, zero...), "drop backing")
	}
	return steps[pc]
}

const (
	pmHeapWord  = HeapBase + 16 // what the heap-range stores write
	pmPlainWord = 1             // what the non-heap store writes
	pmDone      = -1            // pc of a thread whose operation returned
	pmRW        = pageResident | pageRead | pageWrite
)

// pmThread is one operation in progress.
type pmThread struct {
	op   pmOp
	word int8 // the word a store writes
	pc   int8 // next step, or pmDone
	page int8 // the page a sweeper operation is on (0 parent, 1 alias)
	hit  bool // the scan of this page read a heap-range word
	// A store's word lands in the backing it loaded, generation gen; if
	// decommit dropped that backing since, the word left the page with it.
	gen    uint8
	landed bool
}

// pmState is the whole model; it is comparable, so it keys the visited set.
type pmState struct {
	page    [2]uint32 // state words: 0 is the page, 1 the alias page over it
	words   [2]uint64
	sum     [2]bool // dirty summary bits
	dirty   int8    // the space's dirty-page count
	dropped bool    // decommit dropped the backing; the next commit installs a zeroed one
	gen     uint8   // backing generation, bumped by each drop
	owner   bool    // a commit or decommit is running: the extent's owner serialises them
	zeroing bool    // a zeroing holds the page lock
	open    bool    // the soft-dirty window is open: ClearSoftDirty has returned
	clears  int8    // ClearSoftDirty calls running
	// owed marks a word holding a store made in the open window that no
	// pass has read since and no zeroing has wiped.
	owed [2]bool
	// landing counts stores whose word landed and whose step retiring the
	// page's skip bits (postStore, or retireSkip for an alias store) has not
	// run yet.
	landing [2]int8
	pages   int8
	n       int8
	th      [3]pmThread
}

// step is Region.step on the model: one atomic application of t.
func (m *pmState) step(pg int8, t func(s, mask uint32) (uint32, bool), mask uint32) (uint32, bool) {
	old := m.page[pg]
	nw, ok := t(old, mask)
	if ok {
		m.page[pg] = nw
	}
	return old, ok
}

// read is one atomic load of word j by a pass; it reports a heap-range word.
// A dropped backing reads as zero.
func (m *pmState) read(j int) bool {
	if m.dropped {
		return false
	}
	m.owed[j] = false
	return IsHeapAddr(m.words[j])
}

func pmReadable(s uint32) bool { return s&(pageResident|pageRead) == pageResident|pageRead }

// nextPage moves a sweeper operation on to its next page, or ends it.
func (m *pmState) nextPage(t *pmThread) {
	t.pc = 0
	if t.page++; t.page == m.pages {
		t.pc = pmDone
	}
}

// advance runs thread i's next step. It returns false, changing nothing, if
// the step is a lock step on a busy page or an owner step while the owner is
// busy: those steps are enabled only once the holder lets go.
func (m *pmState) advance(i int) bool {
	t := &m.th[i]
	switch t.op {
	case opStoreHeap, opStorePlain, opAliasStore:
		return m.store(t)
	case opZero:
		done, ok := m.zeroStep(t.pc)
		if !ok {
			return false
		}
		t.pc++
		if done {
			t.pc = pmDone
		}
	case opFullScan, opFullScanTake:
		return m.fullScan(t)
	case opPreClean:
		return m.preClean(t)
	case opClearSoftDirty:
		m.clearSoftDirty(t)
	case opCommit, opDecommit:
		return m.residency(t)
	}
	return true
}

// store is Region.store: protection check, word store, postStore, then the
// summary bit for a clean→dirty win; an alias store then retires the parent
// page's skip bits.
//
// A store does not land while a zeroing holds its page: zeroing is of freed
// memory, and only a program that writes memory it freed races it (the
// LockPage contract). The protocol does not survive that race. A pre-clean
// can take the dirty bit the store set before the zeroing publishes
// known-zero, and an alias store dirties the alias page, not the one being
// zeroed; either way known-zero ends up over the store's word.
func (m *pmState) store(t *pmThread) bool {
	pg := int8(0)
	if t.op == opAliasStore {
		pg = 1
	}
	switch t.pc {
	case 0: // the protection check and the backing load
		t.pc, t.gen = 1, m.gen
		if m.page[pg]&(pageResident|pageWrite) != pageResident|pageWrite || m.dropped {
			t.pc = pmDone
		}
	case 1: // the word store
		if m.zeroing {
			return false
		}
		v := uint64(pmHeapWord)
		if t.op == opStorePlain {
			v = pmPlainWord
		}
		if t.landed = t.gen == m.gen; t.landed {
			m.words[t.word] = v
			m.owed[t.word] = m.open
			m.landing[t.word]++
		}
		t.pc = 2
	case 2:
		old, ok := m.step(pg, postStore, 0)
		if pg == 0 && t.landed {
			m.landing[t.word]--
		}
		t.pc = 4
		if ok && old&pageDirty == 0 {
			m.dirty++
			t.pc = 3
		}
	case 3: // the summary bit follows the page bit
		m.sum[pg] = true
		t.pc = 4
	case 4:
		m.step(0, retireSkip, 0)
		if t.landed {
			m.landing[t.word]--
		}
		t.pc = pmDone
	}
	if t.pc == 4 && pg == 0 {
		t.pc = pmDone
	}
	return true
}

// zeroStep runs step k of zeroRange over the whole page: the known-zero
// elision, lock, take dirty, clear, publish known-zero, unlock. It reports
// whether zeroRange has returned, and false for ok on a busy lock.
func (m *pmState) zeroStep(k int8) (done, ok bool) {
	switch k {
	case 0:
		return m.page[0]&pageKnownZero != 0, true
	case 1:
		_, ok = m.step(0, lock, 0)
		if ok {
			m.zeroing = true
		}
		return false, ok
	case 2:
		if _, ok := m.step(0, takeDirty, 0); ok {
			m.dirty--
		}
	case 3: // the clear, with plain stores under the page lock
		if !m.dropped {
			m.words = [2]uint64{}
			m.owed = [2]bool{}
		}
	case 4:
		m.step(0, publishKnownZero, 0)
	case 5:
		m.step(0, unlock, 0)
		m.zeroing = false
		return true, true
	}
	return false, true
}

// scanPage runs step k of ScanPageWords on the thread's page (readable
// check, lock, two word loads, unlock) with lock mask set, and reports
// whether the scan of the page is over, and false for ok on a busy lock.
func (m *pmState) scanPage(t *pmThread, k int8, set uint32) (done, ok bool) {
	pg := t.page
	switch k {
	case 0:
		return !pmReadable(m.page[pg]), true
	case 1:
		t.hit = false
		_, ok = m.step(pg, lock, set)
		return false, ok
	case 2, 3:
		t.hit = m.read(int(k-2)) || t.hit
	case 4:
		clr := uint32(0)
		if t.hit {
			clr = set
		}
		m.step(pg, unlock, clr)
		t.hit = false
		return true, true
	}
	return false, true
}

// fullScan is the full pass over each page: skip it if known-zero, skip it
// if pointer-free, else scan it with the pointer-free flag (none on the
// alias page, which is never flagged). The mostly-concurrent pass takes the
// page's dirty bit between the probes and the scan.
func (m *pmState) fullScan(t *pmThread) bool {
	k := t.pc
	take := t.op == opFullScanTake
	switch {
	case k == 0:
		if m.page[t.page]&pageKnownZero != 0 {
			m.nextPage(t)
			return true
		}
	case k == 1:
		if m.page[t.page]&pagePtrFree != 0 {
			m.nextPage(t)
			return true
		}
	case k == 2 && take:
		if _, ok := m.step(t.page, takeDirty, 0); ok {
			m.dirty--
		}
	default:
		if take {
			k--
		}
		set := pagePtrFree
		if t.page == 1 {
			set = 0
		}
		done, ok := m.scanPage(t, k-2, set)
		if !ok {
			return false
		}
		if done {
			m.nextPage(t)
			return true
		}
	}
	t.pc++
	return true
}

// preClean is one pre-clean round over each page: take the summary bit,
// test-and-clear the dirty bit, scan the page.
func (m *pmState) preClean(t *pmThread) bool {
	switch t.pc {
	case 0:
		taken := m.sum[t.page]
		m.sum[t.page] = false
		if !taken {
			m.nextPage(t)
			return true
		}
	case 1:
		if _, ok := m.step(t.page, takeDirty, 0); !ok {
			m.nextPage(t)
			return true
		}
		m.dirty--
	default:
		done, ok := m.scanPage(t, t.pc-2, 0)
		if !ok {
			return false
		}
		if done {
			m.nextPage(t)
			return true
		}
	}
	t.pc++
	return true
}

// clearSoftDirty wipes each page's summary bit, then takes its dirty bit.
// The window opens when the last running call returns; starting one closes
// the window before, whose re-scan the model does not run, so that window's
// debts are dropped.
func (m *pmState) clearSoftDirty(t *pmThread) {
	if t.pc == 0 {
		if t.page == 0 {
			m.clears++
			m.open, m.owed = false, [2]bool{}
		}
		m.sum[t.page] = false
		t.pc++
		return
	}
	if _, ok := m.step(t.page, takeDirty, 0); ok {
		m.dirty--
	}
	if m.nextPage(t); t.pc == pmDone {
		m.clears--
		m.open = m.clears == 0
	}
}

// residency is commit (ensure backing, commitState, then zero-fill a newly
// resident page that is not known-zero) and decommit (resetState, then zero
// the page and drop the backing, as the last resident page of its region).
// A commit that finds the page resident changes only its protections and
// keeps its dirty bit, so its stores still reach the re-scan.
func (m *pmState) residency(t *pmThread) bool {
	if t.pc == 0 {
		if m.owner {
			return false
		}
		m.owner = true
		var old uint32
		var zero bool
		if t.op == opCommit {
			m.dropped = false
			old, _ = m.step(0, commitState, pmRW)
			if old&(pageResident|pageDirty) == pageDirty {
				m.dirty--
			}
			zero = old&(pageResident|pageKnownZero) == 0
		} else {
			old, _ = m.step(0, resetState, 0)
			if old&pageDirty != 0 {
				m.dirty--
			}
			zero = old&pageResident != 0
		}
		if !zero {
			m.owner = false
			t.pc = pmDone
			return true
		}
		t.pc++
		return true
	}
	if t.pc == 7 { // decommit drops the backing after zeroing it
		m.dropped, m.gen = true, m.gen+1
		m.words, m.owed = [2]uint64{}, [2]bool{}
		m.owner = false
		t.pc = pmDone
		return true
	}
	done, ok := m.zeroStep(t.pc - 1)
	if !ok {
		return false
	}
	t.pc++
	if done {
		if t.op == opDecommit {
			t.pc = 7
			return true
		}
		m.owner = false
		t.pc = pmDone
	}
	return true
}

// rescan is the stop-the-world Dirty pass after the operations: every page
// with its summary and dirty bits set is scanned, and nothing runs beside it.
func (m *pmState) rescan() {
	for pg := int8(0); pg < m.pages; pg++ {
		if m.sum[pg] && m.page[pg]&pageDirty != 0 && pmReadable(m.page[pg]) {
			m.read(0)
			m.read(1)
		}
	}
}

// always checks the invariants that hold in every state.
func (m *pmState) always() string {
	for pg := int8(0); pg < m.pages; pg++ {
		if m.page[pg]&(pageDirty|pageKnownZero) == pageDirty|pageKnownZero {
			return fmt.Sprintf("invariant 1: page %d is dirty and known-zero at once", pg)
		}
	}
	if m.page[0]&pageKnownZero != 0 {
		for j, v := range m.words {
			if v != 0 && m.landing[j] == 0 {
				return fmt.Sprintf("invariant 2: known-zero page reads word %d = %#x with no store landing", j, v)
			}
		}
	}
	if m.pages == 2 && m.page[1]&(pageKnownZero|pagePtrFree) != 0 {
		return "alias page carries a skip bit"
	}
	return ""
}

// final checks the invariants of a quiescent state, after the re-scan.
func (m *pmState) final() string {
	if m.page[0]&(pagePtrFree|pageDirty) == pagePtrFree {
		for j, v := range m.words {
			if IsHeapAddr(v) {
				return fmt.Sprintf("invariant 3: pointer-free page that is not dirty holds heap-range word %d = %#x", j, v)
			}
		}
	}
	if m.page[0]&pageResident != 0 { // a decommitted page holds nothing to see
		for j, owed := range m.owed {
			if owed {
				return fmt.Sprintf("invariant 4: the store to word %d after ClearSoftDirty was seen by no pass and wiped by no zeroing", j)
			}
		}
	}
	n := int8(0)
	for pg := int8(0); pg < m.pages; pg++ {
		if m.page[pg]&pageDirty != 0 {
			n++
			if !m.sum[pg] {
				return fmt.Sprintf("dirty page %d has no summary bit", pg)
			}
		}
		if m.page[pg]&pageBusy != 0 {
			return fmt.Sprintf("page %d still locked", pg)
		}
	}
	if n != m.dirty {
		return fmt.Sprintf("invariant 5: dirty count %d, dirty bits %d", m.dirty, n)
	}
	return ""
}

// pmEdge is how the search first reached a state: from which state, by
// which thread's step at which pc and page.
type pmEdge struct {
	from         pmState
	th, pc, page int8
}

// explore visits every state the operations reach from init in any
// interleaving, checking the invariants, and returns the number of states
// and of distinct interleavings, or a failure with the trace that reached it.
func explore(init pmState) (states int, paths uint64, fail string) {
	seen := map[pmState]pmEdge{init: {th: -1}}
	stack := []pmState{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bad := s.always()
		live, moved := false, false
		for i := 0; i < int(s.n) && bad == ""; i++ {
			if s.th[i].pc == pmDone {
				continue
			}
			live = true
			next := s
			if !next.advance(i) {
				continue
			}
			moved = true
			if _, ok := seen[next]; !ok {
				seen[next] = pmEdge{from: s, th: int8(i), pc: s.th[i].pc, page: s.th[i].page}
				stack = append(stack, next)
			}
		}
		switch {
		case bad != "":
		case !live:
			end := s
			end.rescan()
			bad = end.final()
		case !moved:
			bad = "no step is enabled"
		}
		if bad != "" {
			return len(seen), 0, bad + "\nafter:\n\t" + pmTrace(seen, s)
		}
	}
	// The interleavings are the paths from init to a state where every
	// operation has returned.
	memo := make(map[pmState]uint64, len(seen))
	var count func(s pmState) uint64
	count = func(s pmState) uint64 {
		if c, ok := memo[s]; ok {
			return c
		}
		var c uint64
		live := false
		for i := 0; i < int(s.n); i++ {
			if s.th[i].pc == pmDone {
				continue
			}
			live = true
			next := s
			if next.advance(i) {
				c += count(next)
			}
		}
		if !live {
			c = 1
		}
		memo[s] = c
		return c
	}
	return len(seen), count(init), ""
}

// pmTrace spells out the steps that first reached s.
func pmTrace(seen map[pmState]pmEdge, s pmState) string {
	var steps []string
	for e := seen[s]; e.th >= 0; e = seen[e.from] {
		th := e.from.th[e.th]
		steps = append(steps, fmt.Sprintf("%s#%d %s (page %d)", pmOpNames[th.op], e.th, pmStepName(th.op, e.pc), e.page))
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return strings.Join(steps, "\n\t")
}

// TestPageStateInterleavings runs every ordered pair and triple of the
// model's operations from each starting page, and checks in every
// interleaving (ROADMAP item 12): a page is never dirty and known-zero at once; a known-zero page reads
// all zero; a pointer-free page that is not dirty holds no heap-range word;
// every store after ClearSoftDirty is seen by the full pass, a pre-clean or
// the stop-the-world re-scan, unless a zeroing wiped it; and the dirty count
// equals the dirty bits.
func TestPageStateInterleavings(t *testing.T) {
	starts := []struct {
		name string
		s    pmState
	}{
		{"fresh", pmState{page: [2]uint32{pmRW | pageKnownZero, pmRW}}},
		{"holding a pointer", pmState{page: [2]uint32{pmRW, pmRW}, words: [2]uint64{pmHeapWord, 0}}},
		{"pointer-free", pmState{page: [2]uint32{pmRW | pagePtrFree, pmRW}, words: [2]uint64{0, pmPlainWord}}},
		{"dirty", pmState{page: [2]uint32{pmRW | pageDirty, pmRW}, words: [2]uint64{pmHeapWord, 0}, sum: [2]bool{true, false}, dirty: 1}},
		{"decommitted", pmState{page: [2]uint32{pageKnownZero, pmRW}, dropped: true}},
	}
	// Every ordered pair and every ordered triple: the triples include
	// store + zero + full pass, store + pre-clean + ClearSoftDirty, store +
	// alias store + full pass, and the taking full pass beside a store and a
	// zeroing, a pre-clean or ClearSoftDirty.
	var scenarios [][]pmOp
	for a := pmOp(0); a < pmOps; a++ {
		for b := pmOp(0); b < pmOps; b++ {
			scenarios = append(scenarios, []pmOp{a, b})
			for c := pmOp(0); c < pmOps; c++ {
				scenarios = append(scenarios, []pmOp{a, b, c})
			}
		}
	}
	var states int
	var paths uint64
	for _, start := range starts {
		for _, ops := range scenarios {
			s := start.s
			s.n = int8(len(ops))
			s.pages = 1
			s.open = true
			for i, op := range ops {
				s.th[i] = pmThread{op: op, word: int8(i % 2)}
				switch op {
				case opAliasStore:
					s.pages = 2
				case opClearSoftDirty:
					s.open = false
				}
			}
			n, p, fail := explore(s)
			states += n
			paths += p
			if fail != "" {
				names := make([]string, len(ops))
				for i, op := range ops {
					names[i] = pmOpNames[op]
				}
				t.Fatalf("%s page, %s: %s", start.name, strings.Join(names, " + "), fail)
			}
		}
	}
	t.Logf("%d scenarios, %d states, %d interleavings", len(starts)*len(scenarios), states, paths)
}
