package core

import (
	"math/rand"
	"testing"

	"runaheadsim/internal/isa"
)

// buildSyntheticROB fills a fresh core's ROB with n dynamic uops whose
// dependency structure is random but well-formed, returning the instance of
// targetPC closest to the head (as findOtherInstance would).
func buildSyntheticROB(rng *rand.Rand, c *Core, n int, targetPC uint64) *DynInst {
	uops := make([]*isa.Uop, 0, n)
	for i := 0; i < n; i++ {
		var u isa.Uop
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			u = isa.Uop{Op: isa.ADDI, Dst: isa.Reg(rng.Intn(16)), Src1: isa.Reg(rng.Intn(16)), Src2: isa.RegNone, Imm: 1}
		case 4:
			u = isa.Uop{Op: isa.LD, Dst: isa.Reg(rng.Intn(16)), Src1: isa.Reg(rng.Intn(16)), Src2: isa.RegNone}
		case 5:
			u = isa.Uop{Op: isa.ST, Dst: isa.RegNone, Src1: isa.Reg(rng.Intn(16)), Src2: isa.Reg(rng.Intn(16))}
		case 6:
			u = isa.Uop{Op: isa.BEQZ, Dst: isa.RegNone, Src1: isa.Reg(rng.Intn(16)), Src2: isa.RegNone, Target: 0}
		default:
			u = isa.Uop{Op: isa.ADD, Dst: isa.Reg(rng.Intn(16)), Src1: isa.Reg(rng.Intn(16)), Src2: isa.Reg(rng.Intn(16))}
		}
		uops = append(uops, &u)
	}
	var match *DynInst
	for i, u := range uops {
		c.seq++
		pc := isa.TextBase + uint64(i)*isa.UopBytes
		// Sprinkle extra instances of the target PC.
		if rng.Intn(8) == 0 {
			pc = targetPC
			u = &isa.Uop{Op: isa.LD, Dst: isa.Reg(rng.Intn(16)), Src1: isa.Reg(rng.Intn(16)), Src2: isa.RegNone}
		}
		d := &DynInst{
			Seq: c.seq, PC: pc, Index: i, U: u,
			PDst: noPhys, PSrc1: noPhys, PSrc2: noPhys, POld: noPhys,
			Renamed: true,
		}
		if u.Op.IsMem() && rng.Intn(2) == 0 {
			d.EA = uint64(rng.Intn(1<<12) * 8)
			d.EAValid = true
		}
		c.rob.push(d)
		if pc == targetPC && match == nil {
			match = d
		}
	}
	return match
}

// TestChainGenerationProperties drives Algorithm 1 over many random ROB
// contents and checks its invariants: it terminates, respects the 32-uop
// cap, never includes control ops, always includes the matched load, and
// emits the chain in program order.
func TestChainGenerationProperties(t *testing.T) {
	const targetPC = isa.TextBase + 999*isa.UopBytes
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig(ModeBuffer), simpleLoop())
		match := buildSyntheticROB(rng, c, 40+rng.Intn(150), targetPC)
		if match == nil {
			continue
		}
		ch, searches, truncated := c.generateChain(match, &c.chainGen.fresh)
		if ch == nil {
			t.Fatalf("seed %d: generation returned nil for a valid match", seed)
		}
		if ch.Len() == 0 || ch.Len() > c.cfg.MaxChainLength {
			t.Fatalf("seed %d: chain length %d outside (0, %d]", seed, ch.Len(), c.cfg.MaxChainLength)
		}
		if truncated && ch.Len() < c.cfg.MaxChainLength-c.cfg.SRSLSize {
			t.Fatalf("seed %d: truncated chain of only %d uops", seed, ch.Len())
		}
		if searches < 0 {
			t.Fatalf("seed %d: negative searches", seed)
		}
		foundMatch := false
		for i, cu := range ch.Uops {
			if cu.U.Op.IsBranch() {
				t.Fatalf("seed %d: control op %v in chain", seed, cu.U.Op)
			}
			if cu.PC == match.PC {
				foundMatch = true
			}
			if i > 0 && ch.Uops[i-1].Index >= cu.Index {
				t.Fatalf("seed %d: chain not in program order (%d then %d)",
					seed, ch.Uops[i-1].Index, cu.Index)
			}
		}
		if !foundMatch {
			t.Fatalf("seed %d: matched load missing from its own chain", seed)
		}
		if ch.Signature != chainSignature(ch.Uops) {
			t.Fatalf("seed %d: signature inconsistent", seed)
		}
	}
}
