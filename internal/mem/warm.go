package mem

// Functional cache warming for sampled simulation. Between detailed
// measurement windows the machine fast-forwards on the functional
// interpreter; these entry points replay the fast-forwarded memory
// references into the tag arrays — L1, side buffer, and the shared L2 — so
// each window starts from the cache state a detailed run would have built.
//
// Warming is deliberately invisible to everything the detailed simulator
// reports: no statistics counters, no MSHRs, no latency, no metrics or
// attribution events, no port arbitration. Blocks land instantly (perfect
// memory), which is the standard SMARTS-style functional-warming
// approximation; the per-window detailed warmup on top of it absorbs the
// residual state error.

// WarmLoad replays one fast-forwarded load into the tag arrays.
func (d *DUnit) WarmLoad(addr uint64) {
	addr &= PhysMask
	block := d.l1.BlockAddr(addr)
	if d.l1.Touch(block) {
		return
	}
	if d.side != nil && d.side.Touch(block) {
		// Promote like a demand side-buffer hit: the block swaps into L1.
		d.side.Remove(block)
		d.warmInsertL1(block, false)
		return
	}
	d.h.WarmL2(block)
	d.warmInsertL1(block, false)
}

// WarmStore replays one fast-forwarded store into the tag arrays.
func (d *DUnit) WarmStore(addr uint64) {
	addr &= PhysMask
	block := d.l1.BlockAddr(addr)
	if d.l1.Touch(block) {
		d.l1.SetDirty(block)
		return
	}
	if d.side != nil && d.side.Touch(block) {
		d.side.Remove(block)
		d.warmInsertL1(block, true)
		return
	}
	d.h.WarmL2(block)
	d.warmInsertL1(block, true)
}

// warmInsertL1 fills block into L1, routing the victim the way a demand
// fill would: captured by the side buffer when the configuration keeps
// victims, written back to the L2 when dirty otherwise.
func (d *DUnit) warmInsertL1(block uint64, dirty bool) {
	victim := d.l1.Insert(block, 0, dirty)
	if !victim.Valid {
		return
	}
	if d.sideTakesVictims() {
		sv := d.side.Insert(victim.Addr, victim.Flags, victim.Dirty)
		if sv.Valid && sv.Dirty {
			d.h.warmWriteback(sv.Addr)
		}
		return
	}
	if victim.Dirty {
		d.h.warmWriteback(victim.Addr)
	}
}

// warmUpdate mirrors the sequential-mode update protocol functionally: a
// resident copy is refreshed in place (no bus-traffic accounting).
func (d *DUnit) warmUpdate(addr uint64) {
	d.l1.SetDirty(d.l1.BlockAddr(addr))
}

// WarmFetch replays one fast-forwarded instruction-block reference into
// the I-cache (pc granularity; callers typically invoke it once per block
// crossing, not per instruction).
func (iu *IUnit) WarmFetch(pc int) {
	addr := instAddr(pc)
	block := iu.l1i.BlockAddr(addr)
	if iu.l1i.Touch(block) {
		return
	}
	iu.h.WarmL2(block)
	iu.l1i.Insert(block, 0, false)
}

// WarmL2 touches or fills a block in the shared L2.
func (h *Hierarchy) WarmL2(block uint64) {
	l2block := h.l2.BlockAddr(block)
	if h.l2.Touch(l2block) {
		return
	}
	h.l2.Insert(l2block, 0, false)
}

// warmWriteback lands a dirty L1/side victim in the L2 without traffic
// accounting.
func (h *Hierarchy) warmWriteback(block uint64) {
	h.l2.Insert(h.l2.BlockAddr(block), 0, true)
}

// BeginWarm starts a fast-forward interval: it forgets which block
// WarmSequentialStore last updated, because detailed execution since the
// previous interval may have changed every TU's L1.
func (h *Hierarchy) BeginWarm() { h.warmSet = false }

// WarmSequentialStore replays a fast-forwarded store executed in
// sequential mode: the issuing TU's caches take the store, every other
// TU's resident copy is refreshed (the §3.2.2 update protocol, minus the
// bus statistics).
//
// During a fast-forward interval the other TUs' L1s change only through
// that refresh, which sets the dirty bit of a resident block and is
// therefore idempotent. A repeated store to the block the previous store
// already refreshed, from the same TU and within one interval (see
// BeginWarm), changes nothing there, so it skips the other TUs' probes.
func (h *Hierarchy) WarmSequentialStore(srcTU int, addr uint64) {
	src := &h.dunits[srcTU]
	src.WarmStore(addr)
	block := src.l1.BlockAddr(addr)
	if h.warmSet && h.warmTU == srcTU && h.warmBlock == block {
		return
	}
	h.warmTU, h.warmBlock, h.warmSet = srcTU, block, true
	for tu := range h.dunits {
		if tu != srcTU {
			h.dunits[tu].warmUpdate(addr)
		}
	}
}
