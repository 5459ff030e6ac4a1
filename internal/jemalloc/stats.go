package jemalloc

import (
	"fmt"
	"strings"
)

// BinStats is one size class's statistics, the analogue of the per-bin
// section of jemalloc's malloc_stats_print.
type BinStats struct {
	// Class is the size-class index.
	Class int
	// Size is the class's region size in bytes.
	Size uint64
	// SlabPages is the slab extent size in pages.
	SlabPages int
	// Regions is the number of regions per slab.
	Regions int
	// Slabs is the number of live slabs.
	Slabs int
	// CurRegs is the number of allocated regions across live slabs (the
	// current slab and non-full slabs' occupancy; full slabs count as
	// fully occupied).
	CurRegs int
	// Utilisation is CurRegs / (Slabs * Regions), 0 when no slabs.
	Utilisation float64
}

// DetailedStats is a full accounting snapshot, the malloc_stats_print
// analogue used by diagnostics and the msrun -stats flag.
type DetailedStats struct {
	// Allocated is live usable bytes.
	Allocated uint64
	// SlabBytes is bytes in live slabs (internal fragmentation included).
	SlabBytes uint64
	// LargeBytes is live large-extent bytes.
	LargeBytes uint64
	// DirtyBytes is committed bytes on dirty (reusable) extents.
	DirtyBytes uint64
	// DirtyExtents is the dirty-list length.
	DirtyExtents int
	// Extents is the total extents ever mapped.
	Extents int
	// RSS is the address space's resident bytes.
	RSS uint64
	// Bins holds per-class statistics for classes with live slabs.
	Bins []BinStats
}

// DetailedStats gathers per-bin statistics. It takes every bin lock briefly;
// intended for diagnostics, not hot paths.
func (h *Heap) DetailedStats() DetailedStats {
	d := DetailedStats{
		Allocated:  h.AllocatedBytes(),
		SlabBytes:  uint64(h.slabBytes.Load()),
		LargeBytes: uint64(h.largeLive.Load()),
		RSS:        h.space.RSS(),
	}
	ast := h.arenaStats()
	d.DirtyBytes, d.DirtyExtents, d.Extents = ast.dirtyBytes, ast.dirtyExtents, ast.extents

	// Per-class figures are summed over the shards' bin sets, so the
	// snapshot is the same exact accounting a single shared bin set gave.
	for c := 0; c < NumClasses(); c++ {
		regs := SlabRegions(c)
		slabs := 0
		cur := 0
		for s := range h.shards {
			b := &h.shards[s].bins[c]
			b.mu.Lock()
			if b.nslabs == 0 {
				b.mu.Unlock()
				continue
			}
			counted := 0
			if b.current != nil {
				cur += b.current.nregs - b.current.nfree
				counted++
			}
			for _, sl := range b.nonfull {
				cur += sl.nregs - sl.nfree
				counted++
			}
			// Slabs not in current/nonfull are full.
			cur += (b.nslabs - counted) * regs
			slabs += b.nslabs
			b.mu.Unlock()
		}
		if slabs == 0 {
			continue
		}
		bs := BinStats{
			Class:     c,
			Size:      ClassSize(c),
			SlabPages: SlabPages(c),
			Regions:   regs,
			Slabs:     slabs,
			CurRegs:   cur,
		}
		if total := bs.Slabs * bs.Regions; total > 0 {
			bs.Utilisation = float64(bs.CurRegs) / float64(total)
		}
		d.Bins = append(d.Bins, bs)
	}
	return d
}

// ShardStatsSnapshot is one arena shard's occupancy summary, cheap enough to
// sample from a telemetry gauge: it takes only that shard's locks.
type ShardStatsSnapshot struct {
	// Extents is the shard arena's total extents ever mapped.
	Extents int
	// Slabs is the number of live slabs across the shard's bins.
	Slabs int
	// CurRegs is the number of allocated regions across those slabs.
	CurRegs int
}

// ShardStats gathers one shard's occupancy figures (extents, live slabs,
// allocated regions). Unlike DetailedStats it touches a single shard, so
// periodic per-shard sampling does not serialise the whole heap.
func (h *Heap) ShardStats(s int) ShardStatsSnapshot {
	var out ShardStatsSnapshot
	if s < 0 || s >= len(h.shards) {
		return out
	}
	sh := &h.shards[s]
	sh.arena.mu.Lock()
	out.Extents = sh.arena.nExtents
	sh.arena.mu.Unlock()
	for c := 0; c < NumClasses(); c++ {
		regs := SlabRegions(c)
		b := &sh.bins[c]
		b.mu.Lock()
		if b.nslabs == 0 {
			b.mu.Unlock()
			continue
		}
		counted := 0
		if b.current != nil {
			out.CurRegs += b.current.nregs - b.current.nfree
			counted++
		}
		for _, sl := range b.nonfull {
			out.CurRegs += sl.nregs - sl.nfree
			counted++
		}
		out.CurRegs += (b.nslabs - counted) * regs
		out.Slabs += b.nslabs
		b.mu.Unlock()
	}
	return out
}

// String renders the snapshot in a malloc_stats_print-like layout.
func (d DetailedStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "allocated: %d, slabs: %d, large: %d, rss: %d\n",
		d.Allocated, d.SlabBytes, d.LargeBytes, d.RSS)
	fmt.Fprintf(&b, "dirty: %d bytes in %d extents (of %d total extents)\n",
		d.DirtyBytes, d.DirtyExtents, d.Extents)
	if len(d.Bins) > 0 {
		fmt.Fprintf(&b, "bins:  %5s %8s %6s %6s %8s %6s\n",
			"class", "size", "slabs", "regs", "curregs", "util")
		for _, bin := range d.Bins {
			fmt.Fprintf(&b, "       %5d %8d %6d %6d %8d %5.1f%%\n",
				bin.Class, bin.Size, bin.Slabs, bin.Regions, bin.CurRegs,
				bin.Utilisation*100)
		}
	}
	return b.String()
}
