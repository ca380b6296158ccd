package core

import (
	"math"
	"math/bits"

	"repro/internal/chaos"
	"repro/internal/isa"
)

// RedirectPenalty is the fixed front-end refill bubble after a branch
// misprediction recovery, on top of the natural drain/refill latency.
const RedirectPenalty = 3

// neverWake is the NextWake value of a component with no pending events.
const neverWake = math.MaxUint64

// Step advances the pipeline one cycle. Order within the cycle: commit,
// execute completion (and branch resolution), issue, wrong-path load queue
// drain, fetch/dispatch. Returns false when the core is idle.
func (c *Core) Step(cycle uint64) bool {
	if !c.running && c.robCount == 0 && c.wrongCount == 0 {
		return false
	}
	if c.chaos != nil {
		c.chaos.Panic(chaos.PointCoreStep)
	}
	for i := range c.fuUsed {
		c.fuUsed[i] = 0
	}
	c.commit(cycle)
	c.complete(cycle)
	c.issue(cycle)
	c.drainWrongQ(cycle)
	c.fetch(cycle)
	return true
}

// NextWake returns the earliest future cycle at which stepping this core
// could change any observable state, given that cycle has just been stepped.
// neverWake means the core is inert until some external event (a memory
// fill, a thread start) arrives. The bound is conservative: it may be
// earlier than the next real state change, never later.
func (c *Core) NextWake(cycle uint64) uint64 {
	if !c.running && c.robCount == 0 && c.wrongCount == 0 {
		return neverWake
	}
	if c.wrongCount > 0 {
		return cycle + 1 // wrong-load queue drains under port arbitration
	}
	// Fetch side: if the front end would attempt a fetch next cycle it can
	// dispatch or count an I-cache stall, so the cycle must be stepped.
	if c.running && !c.fetchStopped {
		if c.redirectStall > 0 {
			return cycle + 1 // decrements every fetched cycle
		}
		if c.robCount < c.cfg.ROBSize {
			if c.code.At(c.fetchPC).Class&isa.ClassMem == 0 || c.lsqCount < c.cfg.LSQSize {
				return cycle + 1
			}
		}
	}
	if c.robCount > 0 && c.rob.state[c.robHead] == stDone {
		return cycle + 1 // commit can retire
	}
	for _, w := range c.readyMask {
		if w != 0 {
			return cycle + 1 // an entry can attempt issue
		}
	}
	// Only executing entries remain: wake at the earliest completion, the
	// calendar's first bucket or a polled request that is already Done. A
	// request that is not yet Done is woken by the hierarchy's fill event
	// instead.
	wake := c.cal.next()
	for wi, word := range c.pollMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if r := c.rob.req[wi<<6|b]; r.Done && r.DoneCycle < wake {
				wake = r.DoneCycle
			}
		}
	}
	if wake != neverWake && wake <= cycle {
		wake = cycle + 1
	}
	return wake
}

// ---- bitmap and wait-chain helpers -------------------------------------

func maskSet(m []uint64, i int)   { m[i>>6] |= 1 << (uint(i) & 63) }
func maskClear(m []uint64, i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// entryReady reports whether a dispatched entry has all operands ready:
// neither used operand may still be unresolved.
func (c *Core) entryReady(idx int) bool {
	f := c.rob.flags[idx]
	return f&(fUse1|fS1Rdy) != fUse1 && f&(fUse2|fS2Rdy) != fUse2
}

// addWaiter links waiter slot's operand op onto producer prod's wake-up
// chain. Node encoding: slot*2 + op.
func (c *Core) addWaiter(prod, slot, op int) {
	if op == 0 {
		c.rob.wNext0[slot] = c.rob.waitHead[prod]
	} else {
		c.rob.wNext1[slot] = c.rob.waitHead[prod]
	}
	c.rob.waitHead[prod] = int32(slot<<1 | op)
}

// slotAt is the ROB slot at age position agePos (0..ROBSize).
func (c *Core) slotAt(agePos int) int {
	s := c.robHead + agePos
	if s >= c.cfg.ROBSize {
		s -= c.cfg.ROBSize
	}
	return s
}

// posOf is the age position of a ROB slot (inverse of slotAt).
func (c *Core) posOf(slot int) int {
	p := slot - c.robHead
	if p < 0 {
		p += c.cfg.ROBSize
	}
	return p
}

// commit retires up to IssueWidth done entries from the ROB head, applying
// architectural effects in program order.
func (c *Core) commit(cycle uint64) {
	for n := 0; n < c.cfg.IssueWidth && c.robCount > 0; n++ {
		idx := c.robHead
		if c.rob.state[idx] != stDone {
			return
		}
		d := c.code.At(int(c.rob.pc[idx]))
		// Architectural register writeback.
		if cl := c.rob.class[idx]; cl&isa.ClassDest != 0 {
			if cl&isa.ClassFPDest != 0 {
				c.FPRegs[d.Rd] = math.Float64frombits(uint64(c.rob.val[idx]))
				if c.renameFP[d.Rd] == idx {
					c.renameFP[d.Rd] = -1
				}
			} else {
				c.IntRegs[d.Rd] = c.rob.val[idx]
				if c.renameInt[d.Rd] == idx {
					c.renameInt[d.Rd] = -1
				}
			}
		}
		if c.wrongMode {
			c.Stats.WrongCommits++
		} else {
			c.Stats.Commits++
		}
		switch d.Op {
		case isa.LD, isa.FLD:
			c.Stats.Loads++
			c.popLSQ(idx)
		case isa.ST, isa.FST:
			c.Stats.Stores++
			c.dmem.CommitStore(cycle, c.rob.addr[idx], c.rob.storeBits[idx], false, int(c.rob.pc[idx]))
			c.popLSQ(idx)
		case isa.TST:
			c.Stats.Stores++
			c.dmem.CommitStore(cycle, c.rob.addr[idx], c.rob.storeBits[idx], true, int(c.rob.pc[idx]))
			c.popLSQ(idx)
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			c.Stats.Branches++
			bf := c.rob.bflags[idx]
			// Train the direction predictor at commit so wrong-path
			// branches never pollute it; count only committed mispredicts.
			c.bp.UpdateDirection(int(c.rob.pc[idx]), bf&bTaken != 0, bf&bPredTaken != 0)
			if bf&bMispredict != 0 {
				c.Stats.Mispredicts++
			}
		case isa.BEGIN:
			c.env.OnBegin(cycle, d.Imm)
		case isa.FORK:
			c.env.OnFork(cycle, int(d.Imm))
		case isa.TSAGD:
			c.env.OnTsagd(cycle)
		case isa.TSA:
			c.env.OnTsa(cycle, uint64(c.rob.val[idx]))
		case isa.THEND:
			if c.cfg.SeqLoops {
				c.env.OnThend(cycle)
				break
			}
			c.retireROBHead()
			c.running = false
			c.squashAll()
			c.env.OnThend(cycle)
			return
		case isa.ABORT:
			if c.cfg.SeqLoops {
				c.env.OnAbort(cycle, int(c.rob.pc[idx])+1)
				break
			}
			resume := int(c.rob.pc[idx]) + 1
			c.retireROBHead()
			c.running = false
			c.squashAll()
			c.env.OnAbort(cycle, resume)
			return
		case isa.HALT:
			c.retireROBHead()
			c.running = false
			c.squashAll()
			c.env.OnHalt(cycle)
			return
		}
		c.retireROBHead()
	}
}

func (c *Core) retireROBHead() {
	c.robHead++
	if c.robHead == c.cfg.ROBSize {
		c.robHead = 0
	}
	c.robCount--
}

// popLSQ removes a committing memory op from the LSQ. Commit proceeds in
// program order and the LSQ is kept in program order, so the committing op
// is always the ring front; the scan below is a defensive fallback only.
func (c *Core) popLSQ(idx int) {
	if c.lsqCount > 0 && c.lsqBuf[c.lsqHead] == idx {
		c.lsqHead++
		if c.lsqHead == len(c.lsqBuf) {
			c.lsqHead = 0
		}
		c.lsqCount--
		return
	}
	for i := 0; i < c.lsqCount; i++ {
		if c.lsqBuf[c.lsqSlot(i)] != idx {
			continue
		}
		// Shift later entries forward one position, preserving age order.
		for k := i; k < c.lsqCount-1; k++ {
			c.lsqBuf[c.lsqSlot(k)] = c.lsqBuf[c.lsqSlot(k+1)]
		}
		c.lsqCount--
		return
	}
}

// lsqSlot is the LSQ ring index of the i-th oldest memory op (0..LSQSize).
func (c *Core) lsqSlot(i int) int {
	j := c.lsqHead + i
	if j >= len(c.lsqBuf) {
		j -= len(c.lsqBuf)
	}
	return j
}

// squashAll discards every in-flight entry (thread end or kill). The wrong
// queue is preserved: already-extracted wrong loads keep prefetching.
func (c *Core) squashAll() {
	c.Stats.SquashedInsts += uint64(c.robCount)
	c.releaseInFlight()
	c.robHead, c.robTail, c.robCount = 0, 0, 0
	for i := range c.renameInt {
		c.renameInt[i] = -1
	}
	for i := range c.renameFP {
		c.renameFP[i] = -1
	}
	c.lsqHead, c.lsqCount = 0, 0
	c.clearCompletion()
	c.fetchStopped = true
}

// clearCompletion empties the ready and blocked sets, the calendar and the
// polled set.
func (c *Core) clearCompletion() {
	for i := range c.readyMask {
		c.readyMask[i] = 0
		c.blockedMask[i] = 0
		c.pollMask[i] = 0
		c.dueMask[i] = 0
	}
	c.cal.reset()
}

// schedule puts slot idx into execution, completing at cycle at (within
// the calendar's horizon).
func (c *Core) schedule(idx int, at uint64) {
	c.rob.state[idx] = stExecuting
	c.rob.doneAt[idx] = at
	c.cal.add(idx, at)
}

// unschedule drops a squashed executing entry from the calendar or the
// polled set, whichever holds it.
func (c *Core) unschedule(idx int) {
	maskClear(c.pollMask, idx)
	c.cal.remove(idx, c.rob.doneAt[idx])
}

// complete marks finished executions done, broadcasts results to waiting
// consumers, and resolves branches (possibly triggering recovery). The
// entries finishing this cycle come off the calendar and the polled set
// and are processed in age order.
func (c *Core) complete(cycle uint64) {
	due := c.cal.drain(cycle, c.dueMask)
	for wi, word := range c.pollMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			idx := wi<<6 | b
			if r := c.rob.req[idx]; r.Done && r.DoneCycle <= cycle {
				maskClear(c.pollMask, idx)
				maskSet(c.dueMask, idx)
				due = true
			}
		}
	}
	if !due {
		return
	}
	n := c.cfg.ROBSize
	end := c.robHead + c.robCount
	if end <= n {
		c.completeRange(cycle, c.robHead, end)
	} else if c.completeRange(cycle, c.robHead, n) {
		c.completeRange(cycle, 0, end-n)
	}
	for i := range c.dueMask {
		c.dueMask[i] = 0
	}
}

// completeRange completes the due entries with slot index in [lo, hi).
// Returns false when a branch recovery squashed younger entries (the
// remaining due entries are gone; iteration must stop).
func (c *Core) completeRange(cycle uint64, lo, hi int) bool {
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := c.dueMask[w]
		if w == lo>>6 {
			word &^= (1 << (uint(lo) & 63)) - 1
		}
		if w == (hi-1)>>6 {
			if top := uint(hi-1)&63 + 1; top < 64 {
				word &= (1 << top) - 1
			}
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			idx := w<<6 | b
			if r := c.rob.req[idx]; r != nil {
				r.Release()
				c.rob.req[idx] = nil
			}
			c.rob.state[idx] = stDone
			c.broadcast(idx)
			if c.rob.class[idx]&isa.ClassCtrl != 0 {
				if c.resolveControl(cycle, idx, c.posOf(idx)) {
					return false // recovery squashed everything younger
				}
			}
		}
	}
	return true
}

// broadcast forwards a completed entry's result to the consumers chained on
// its wake-up list.
func (c *Core) broadcast(idx int) {
	node := c.rob.waitHead[idx]
	c.rob.waitHead[idx] = -1
	v := c.rob.val[idx]
	for node >= 0 {
		k := int(node >> 1)
		op := int(node & 1)
		var next int32
		if op == 0 {
			next = c.rob.wNext0[k]
			c.rob.wNext0[k] = -1
		} else {
			next = c.rob.wNext1[k]
			c.rob.wNext1[k] = -1
		}
		// Validate the link: the waiter must still be a live dispatched
		// entry waiting on this producer (squash rebuilds chains, so stale
		// links should not occur; this guards the invariant cheaply).
		if c.rob.state[k] == stDispatched && c.posOf(k) < c.robCount {
			f := c.rob.flags[k]
			if op == 0 {
				if f&fUse1 != 0 && f&fS1Rdy == 0 && int(c.rob.s1rob[k]) == idx {
					c.rob.flags[k] = f | fS1Rdy
					c.rob.s1[k] = v
					if c.entryReady(k) {
						maskSet(c.readyMask, k)
					}
				}
			} else {
				if f&fUse2 != 0 && f&fS2Rdy == 0 && int(c.rob.s2rob[k]) == idx {
					c.rob.flags[k] = f | fS2Rdy
					c.rob.s2[k] = v
					if c.entryReady(k) {
						maskSet(c.readyMask, k)
					}
				}
			}
		}
		node = next
	}
}

// resolveControl checks a completed branch or indirect jump against its
// prediction, training the predictor and recovering on a mismatch. Returns
// true when recovery squashed younger entries.
func (c *Core) resolveControl(cycle uint64, idx, agePos int) bool {
	d := c.code.At(int(c.rob.pc[idx]))
	var taken bool
	var target int
	if d.Op == isa.JR {
		taken = true
		target = int(c.rob.s1[idx])
	} else {
		taken = isa.BranchTaken(d.Inst(), c.rob.s1[idx], c.rob.s2[idx])
		target = int(d.Imm)
	}
	if taken {
		c.rob.bflags[idx] |= bTaken
	}
	pc := int(c.rob.pc[idx])
	actualNext := pc + 1
	if taken {
		actualNext = target
	}
	predNext := pc + 1
	if c.rob.bflags[idx]&bPredTaken != 0 {
		predNext = int(c.rob.predTarget[idx])
	}
	if actualNext == predNext {
		return false
	}
	c.rob.bflags[idx] |= bMispredict
	if d.Op == isa.JR {
		// Indirect-jump mispredicts are rare; count them at resolution.
		c.Stats.Mispredicts++
	}
	c.recover(cycle, agePos, actualNext)
	return true
}

// recover squashes all entries younger than the entry at agePos, extracts
// ready wrong-path loads into the wrong queue (wp configurations), rebuilds
// the rename maps, ready set, and wake-up chains, and redirects fetch.
func (c *Core) recover(cycle uint64, agePos, nextPC int) {
	for p := agePos + 1; p < c.robCount; p++ {
		idx := c.slotAt(p)
		c.Stats.SquashedInsts++
		if c.rob.state[idx] == stExecuting {
			c.unschedule(idx)
		}
		if r := c.rob.req[idx]; r != nil {
			r.Release()
			c.rob.req[idx] = nil
		}
		if c.cfg.WrongPathExec && c.rob.class[idx]&isa.ClassLoad != 0 && c.rob.flags[idx]&fMemIssued == 0 {
			// Compute the effective address if its operand is ready: these
			// are the "ready" wrong-path loads of Figure 3 that continue to
			// memory; address-unknown loads squash outright.
			f := c.rob.flags[idx]
			if f&fAddrKnown == 0 && f&fS1Rdy != 0 {
				c.rob.addr[idx] = isa.EffAddr(c.code.At(int(c.rob.pc[idx])).Inst(), c.rob.s1[idx])
				c.rob.flags[idx] = f | fAddrKnown
			}
			if c.rob.flags[idx]&fAddrKnown != 0 && c.wrongCount < len(c.wrongQ) {
				j := c.wrongHead + c.wrongCount
				if j >= len(c.wrongQ) {
					j -= len(c.wrongQ)
				}
				c.wrongQ[j] = wrongLoad{addr: c.rob.addr[idx], pc: int(c.rob.pc[idx])}
				c.wrongCount++
			}
		}
	}
	// Drop squashed entries.
	newCount := agePos + 1
	c.robTail = c.slotAt(newCount)
	// Truncate the LSQ: survivors are a program-order prefix of the ring.
	kept := 0
	for i := 0; i < c.lsqCount; i++ {
		if c.posOf(c.lsqBuf[c.lsqSlot(i)]) >= newCount {
			break
		}
		kept++
	}
	c.lsqCount = kept
	c.robCount = newCount
	// Rebuild rename maps, the ready set (blocked loads rejoin it), and
	// wake-up chains from the surviving entries, oldest to youngest.
	// Executing survivors keep their calendar or polled-set place.
	for i := range c.renameInt {
		c.renameInt[i] = -1
	}
	for i := range c.renameFP {
		c.renameFP[i] = -1
	}
	for i := range c.readyMask {
		c.readyMask[i] = 0
		c.blockedMask[i] = 0
	}
	for p := 0; p < c.robCount; p++ {
		c.rob.waitHead[c.slotAt(p)] = -1
	}
	for p := 0; p < c.robCount; p++ {
		idx := c.slotAt(p)
		if cl := c.rob.class[idx]; cl&isa.ClassDest != 0 {
			rd := c.code.At(int(c.rob.pc[idx])).Rd
			if cl&isa.ClassFPDest != 0 {
				c.renameFP[rd] = idx
			} else {
				c.renameInt[rd] = idx
			}
		}
		if c.rob.state[idx] == stDispatched {
			c.rob.wNext0[idx], c.rob.wNext1[idx] = -1, -1
			f := c.rob.flags[idx]
			if f&fUse1 != 0 && f&fS1Rdy == 0 {
				c.addWaiter(int(c.rob.s1rob[idx]), idx, 0)
			}
			if f&fUse2 != 0 && f&fS2Rdy == 0 {
				c.addWaiter(int(c.rob.s2rob[idx]), idx, 1)
			}
			if c.entryReady(idx) {
				maskSet(c.readyMask, idx)
			}
		}
	}
	c.fetchPC = nextPC
	c.fetchStopped = false
	c.redirectStall = RedirectPenalty
}

// issue starts execution of ready entries in age order, bounded by issue
// width and functional-unit availability. Only entries in the ready set are
// visited.
func (c *Core) issue(cycle uint64) {
	if c.robCount == 0 {
		return
	}
	n := c.cfg.ROBSize
	end := c.robHead + c.robCount
	if end <= n {
		c.issueRange(cycle, c.robHead, end, 0)
		return
	}
	if issued := c.issueRange(cycle, c.robHead, n, 0); issued < c.cfg.IssueWidth {
		c.issueRange(cycle, 0, end-n, issued)
	}
}

// issueRange attempts issue for ready entries with slot index in [lo, hi),
// given issued instructions already issued this cycle; it returns the new
// count.
func (c *Core) issueRange(cycle uint64, lo, hi, issued int) int {
	for w := lo >> 6; w <= (hi-1)>>6 && issued < c.cfg.IssueWidth; w++ {
		inRange := ^uint64(0)
		if w == lo>>6 {
			inRange &^= (1 << (uint(lo) & 63)) - 1
		}
		if w == (hi-1)>>6 {
			if top := uint(hi-1)&63 + 1; top < 64 {
				inRange &= (1 << top) - 1
			}
		}
		word := c.readyMask[w] & inRange
		for word != 0 && issued < c.cfg.IssueWidth {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			idx := w<<6 | b
			cl := c.rob.class[idx]
			switch {
			case cl&isa.ClassLoad != 0:
				if !c.issueLoad(cycle, idx) {
					continue
				}
			case cl&isa.ClassStore != 0:
				// Stores compute address and data; the cache access happens
				// at commit (sequential mode) or write-back drain (parallel
				// mode).
				d := c.code.At(int(c.rob.pc[idx]))
				c.rob.addr[idx] = isa.EffAddr(d.Inst(), c.rob.s1[idx])
				c.rob.storeBits[idx] = c.rob.s2[idx]
				c.rob.flags[idx] |= fAddrKnown | fValKnown
				c.schedule(idx, cycle+1)
				// A resolved store address is the one event that can
				// unblock a load: every blocked load rejoins the ready
				// set, and the younger ones in this word rejoin this pass,
				// as they would had they never left it.
				word |= c.blockedMask[w] & inRange &^ (2<<uint(b) - 1)
				c.unblockLoads()
			default:
				d := c.code.At(int(c.rob.pc[idx]))
				if !c.takeFU(d.FU) {
					continue
				}
				c.execALU(cycle, idx, d)
			}
			maskClear(c.readyMask, idx)
			issued++
		}
	}
	return issued
}

// unblockLoads returns every blocked load to the ready set.
func (c *Core) unblockLoads() {
	for i, m := range c.blockedMask {
		c.readyMask[i] |= m
		c.blockedMask[i] = 0
	}
}

func (c *Core) takeFU(fu isa.FUClass) bool {
	var limit int
	switch fu {
	case isa.FUIntALU:
		limit = c.cfg.IntALU
	case isa.FUIntMul:
		limit = c.cfg.IntMul
	case isa.FUFPAdd:
		limit = c.cfg.FPAdd
	case isa.FUFPMul:
		limit = c.cfg.FPMul
	default:
		return true // markers need no FU
	}
	if c.fuUsed[fu] >= limit {
		return false
	}
	c.fuUsed[fu]++
	return true
}

// execALU computes a non-memory result, visible after the op latency.
func (c *Core) execALU(cycle uint64, idx int, d *isa.Decoded) {
	switch d.Op {
	case isa.JAL:
		c.rob.val[idx] = int64(int(c.rob.pc[idx]) + 1)
	case isa.JMP, isa.NOP, isa.HALT, isa.BEGIN, isa.FORK, isa.TSAGD,
		isa.THEND, isa.ABORT:
		// Markers and unconditional jumps carry no data result.
	default:
		s1, s2 := c.rob.s1[idx], c.rob.s2[idx]
		iv, fv := isa.Eval(d.Inst(), s1, s2,
			math.Float64frombits(uint64(s1)), math.Float64frombits(uint64(s2)))
		if d.Class&isa.ClassFPDest != 0 {
			iv = int64(math.Float64bits(fv))
		}
		c.rob.val[idx] = iv
	}
	c.schedule(idx, cycle+uint64(d.Lat))
}

// issueLoad attempts to start a load: memory ordering against older stores,
// store-to-load forwarding, then the DMem (memory buffer + caches).
func (c *Core) issueLoad(cycle uint64, idx int) bool {
	if c.rob.flags[idx]&fAddrKnown == 0 {
		c.rob.addr[idx] = isa.EffAddr(c.code.At(int(c.rob.pc[idx])).Inst(), c.rob.s1[idx])
		c.rob.flags[idx] |= fAddrKnown
	}
	addr := c.rob.addr[idx]
	// Conservative disambiguation: every older store must have a known
	// address; the nearest older same-address store forwards its data.
	fwd := -1
	j := c.lsqHead
	for i := 0; i < c.lsqCount; i++ {
		s := c.lsqBuf[j]
		j++
		if j == len(c.lsqBuf) {
			j = 0
		}
		if s == idx {
			break
		}
		if c.rob.class[s]&isa.ClassStore == 0 {
			continue
		}
		if c.rob.flags[s]&fAddrKnown == 0 {
			// Wait for the unresolved older store address. Nothing but a
			// store issue can change that, so the load leaves the ready
			// set until one does.
			maskClear(c.readyMask, idx)
			maskSet(c.blockedMask, idx)
			return false
		}
		if c.rob.addr[s] == addr {
			fwd = s
		}
	}
	if fwd >= 0 {
		if c.rob.flags[fwd]&fValKnown == 0 {
			return false // data not ready yet
		}
		c.rob.val[idx] = c.rob.storeBits[fwd]
		c.rob.flags[idx] |= fMemIssued
		c.schedule(idx, cycle+1)
		return true
	}
	if !c.dmem.LoadsAllowed() {
		return false
	}
	res := c.dmem.TryLoad(cycle, addr, c.wrongMode, int(c.rob.pc[idx]))
	switch res.Status {
	case LoadStall, LoadNoPort:
		return false
	case LoadForwarded:
		c.rob.val[idx] = res.Value
		c.rob.flags[idx] |= fMemIssued
		c.schedule(idx, cycle+1)
		return true
	default: // LoadIssued
		c.rob.req[idx] = res.Req
		c.rob.val[idx] = res.Value
		c.rob.flags[idx] |= fMemIssued
		// A request already Done (a hit) goes on the calendar; a miss is
		// polled until its fill arrives.
		at := cycle + 1
		if r := res.Req; r.Done && r.DoneCycle > at {
			at = r.DoneCycle
		}
		if res.Req.Done && c.cal.fits(at) {
			c.schedule(idx, at)
		} else {
			c.rob.state[idx] = stExecuting
			maskSet(c.pollMask, idx)
		}
		return true
	}
}

// drainWrongQ keeps issuing extracted wrong-path loads to the memory system
// as ports allow; correct-path demand accesses already had priority this
// cycle (issue runs first).
func (c *Core) drainWrongQ(cycle uint64) {
	for c.wrongCount > 0 {
		w := c.wrongQ[c.wrongHead]
		if !c.dmem.WrongLoad(cycle, w.addr, w.pc) {
			return
		}
		c.Stats.WrongPathLoadsIssued++
		c.wrongHead++
		if c.wrongHead == len(c.wrongQ) {
			c.wrongHead = 0
		}
		c.wrongCount--
	}
}

// fetch brings new instructions into the ROB: up to IssueWidth per cycle,
// stopping at thread-ending instructions, I-cache misses, or full ROB/LSQ.
func (c *Core) fetch(cycle uint64) {
	if !c.running || c.fetchStopped {
		return
	}
	if c.redirectStall > 0 {
		c.redirectStall--
		return
	}
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.robCount >= c.cfg.ROBSize {
			return
		}
		d := c.code.At(c.fetchPC)
		if d.Class&isa.ClassMem != 0 && c.lsqCount >= c.cfg.LSQSize {
			return
		}
		if !c.imem.FetchReady(cycle, c.fetchPC) {
			c.Stats.FetchStallICache++
			return
		}
		c.dispatch(cycle, d)
		if d.Op == isa.HALT {
			c.fetchStopped = true
			return
		}
		if !c.cfg.SeqLoops && (d.Op == isa.THEND || d.Op == isa.ABORT) {
			// ABORT transfers control out of the loop body; the thread
			// resumes (or dies) under sta control after commit.
			c.fetchStopped = true
			return
		}
	}
}

// dispatch places one decoded instruction into the ROB tail, reading or
// renaming its operands and predicting control flow.
func (c *Core) dispatch(cycle uint64, d *isa.Decoded) {
	idx := c.robTail
	c.robTail++
	if c.robTail == c.cfg.ROBSize {
		c.robTail = 0
	}
	c.robCount++
	c.rob.pc[idx] = int32(c.fetchPC)
	c.rob.class[idx] = d.Class
	c.rob.state[idx] = stDispatched
	c.rob.flags[idx] = 0
	c.rob.bflags[idx] = 0
	c.rob.waitHead[idx] = -1
	c.rob.wNext0[idx], c.rob.wNext1[idx] = -1, -1
	maskClear(c.readyMask, idx)

	if d.Src&isa.SrcUse1 != 0 {
		c.rob.flags[idx] |= fUse1
		c.readOperand(idx, 0, d.Rs1, d.Src&isa.SrcFP1 != 0)
	}
	if d.Src&isa.SrcUse2 != 0 {
		c.rob.flags[idx] |= fUse2
		c.readOperand(idx, 1, d.Rs2, d.Src&isa.SrcFP2 != 0)
	}
	if c.metrics != nil {
		c.observeLoadUse(idx)
	}
	if d.Class&isa.ClassMarker != 0 {
		// Markers with no execution latency complete at dispatch+1.
		c.schedule(idx, cycle+1)
	} else {
		f := c.rob.flags[idx]
		if f&fUse1 != 0 && f&fS1Rdy == 0 {
			c.addWaiter(int(c.rob.s1rob[idx]), idx, 0)
		}
		if f&fUse2 != 0 && f&fS2Rdy == 0 {
			c.addWaiter(int(c.rob.s2rob[idx]), idx, 1)
		}
		if c.entryReady(idx) {
			maskSet(c.readyMask, idx)
		}
	}

	if d.Class&isa.ClassMem != 0 {
		c.lsqBuf[c.lsqSlot(c.lsqCount)] = idx
		c.lsqCount++
	}

	// Rename the destination.
	if d.Class&isa.ClassDest != 0 {
		if d.Class&isa.ClassFPDest != 0 {
			c.renameFP[d.Rd] = idx
		} else {
			c.renameInt[d.Rd] = idx
		}
	}

	// Control flow prediction.
	next := c.fetchPC + 1
	switch d.Op {
	case isa.FORK:
		if c.cfg.SeqLoops {
			c.seqForkTarget = int(d.Imm)
		}
	case isa.THEND:
		if c.cfg.SeqLoops {
			// Sequential semantics: the next iteration begins at the fork
			// target (matches the functional interpreter).
			next = c.seqForkTarget
		}
	case isa.JMP:
		next = int(d.Imm)
	case isa.JAL:
		c.bp.PushRAS(c.fetchPC + 1)
		next = int(d.Imm)
	case isa.JR:
		if tgt, ok := c.bp.PopRAS(); ok {
			c.rob.bflags[idx] |= bPredTaken
			c.rob.predTarget[idx] = int32(tgt)
			next = tgt
		} else {
			c.rob.predTarget[idx] = int32(c.fetchPC + 1)
		}
	default:
		if d.Class&isa.ClassCtrl != 0 { // a conditional branch (JR is above)
			c.rob.predTarget[idx] = int32(d.Imm)
			if c.bp.PredictDirection(c.fetchPC) {
				c.rob.bflags[idx] |= bPredTaken
				next = int(c.rob.predTarget[idx])
			}
		}
	}
	c.fetchPC = next
}

// observeLoadUse reports, for each source operand still waiting on an
// in-flight load, the program-order distance (in instructions) from that
// load to this consumer — the window the memory system has to hide the
// load's latency. Called only when a metrics collector is attached.
func (c *Core) observeLoadUse(idx int) {
	f := c.rob.flags[idx]
	if f&fUse1 != 0 && f&fS1Rdy == 0 && c.rob.class[c.rob.s1rob[idx]]&isa.ClassLoad != 0 {
		c.metrics.ObserveLoadUse(uint64(c.posOf(idx) - c.posOf(int(c.rob.s1rob[idx]))))
	}
	if f&fUse2 != 0 && f&fS2Rdy == 0 && c.rob.class[c.rob.s2rob[idx]]&isa.ClassLoad != 0 {
		c.metrics.ObserveLoadUse(uint64(c.posOf(idx) - c.posOf(int(c.rob.s2rob[idx]))))
	}
}

// readOperand resolves source register r into operand op (0 or 1) of slot
// idx: a ready value, or a link to the producer's ROB slot plus a pending
// wake-up registration (done by dispatch after both operands resolve).
func (c *Core) readOperand(idx, op int, r uint8, fp bool) {
	prod := -1
	rdy := false
	var v int64
	if fp {
		if prod = c.renameFP[r]; prod < 0 {
			rdy, v = true, int64(math.Float64bits(c.FPRegs[r]))
		}
	} else if r == 0 {
		rdy = true
	} else if prod = c.renameInt[r]; prod < 0 {
		rdy, v = true, c.IntRegs[r]
	}
	if prod >= 0 && c.rob.state[prod] == stDone {
		rdy, v = true, c.rob.val[prod]
	}
	if op == 0 {
		if rdy {
			c.rob.flags[idx] |= fS1Rdy
			c.rob.s1[idx] = v
		} else {
			c.rob.s1rob[idx] = int32(prod)
		}
	} else {
		if rdy {
			c.rob.flags[idx] |= fS2Rdy
			c.rob.s2[idx] = v
		} else {
			c.rob.s2rob[idx] = int32(prod)
		}
	}
}
