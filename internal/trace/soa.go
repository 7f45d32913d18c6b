package trace

import (
	"fmt"
	"io"

	"intervalsim/internal/isa"
)

// SoA is a dynamic trace decoded once into a struct-of-arrays layout, the
// preferred input for the cycle-level simulator's hot path. Where Trace
// stores one 40-byte isa.Inst per record, SoA keeps each field in its own
// parallel slice, so a consumer touching only a few fields (the fetch stage
// reads PCs, the scheduler reads dependence indices) streams through dense
// cache lines instead of strided structs.
//
// Beyond the layout change, Pack precomputes the dependence metadata the
// out-of-order scheduler would otherwise recover instruction by instruction:
// for every record, the trace index of its operand producers and — for loads
// — of the youngest earlier store to the same 8-byte word. The metadata is a
// property of the trace alone, so a trace packed once is reused across every
// machine configuration of a sweep with no per-run rediscovery.
//
// Invariants (established by Pack/PackReader, relied on by internal/uarch,
// internal/ilp and internal/core):
//
//   - All slices have identical length Len().
//   - Meta[i] packs the class in the low 4 bits and the taken flag in bit 4,
//     mirroring the binary format's head byte.
//   - Dep1[i]/Dep2[i] are the largest j < i with Dst[j] == Src1[i] (resp.
//     Src2[i]), or NoDep when the source is absent or never written earlier.
//   - DepMem[i] is, for loads only, the largest j < i where record j is a
//     store with Addr[j]/8 == Addr[i]/8, or NoDep; non-loads hold NoDep.
//   - Every record passed isa.Inst.Validate at pack time.
//
// A packed trace is immutable after Pack returns: no code in this module
// writes to the slices, and consumers that need a variant (e.g.
// core.Predicate) copy records out and re-pack. Sharing infrastructure
// depends on this — package overlay keys its miss-event cache on the *SoA
// pointer identity, which is only a valid cache key while the pointed-to
// contents never change.
type SoA struct {
	PC     []uint64
	Addr   []uint64
	Target []uint64
	Src1   []int8
	Src2   []int8
	Dst    []int8
	Meta   []uint8

	Dep1   []int32
	Dep2   []int32
	DepMem []int32
}

// NoDep marks an absent producer in the Dep1/Dep2/DepMem metadata.
const NoDep int32 = -1

// Meta byte layout: class in the low four bits, taken flag in bit 4.
const (
	MetaClassMask uint8 = 0x0f
	MetaTakenBit  uint8 = 1 << 4
)

// Len returns the number of dynamic instructions.
func (s *SoA) Len() int { return len(s.Meta) }

// Class returns the instruction class of record i.
func (s *SoA) Class(i int) isa.Class { return isa.Class(s.Meta[i] & MetaClassMask) }

// Taken reports the branch direction of record i.
func (s *SoA) Taken(i int) bool { return s.Meta[i]&MetaTakenBit != 0 }

// InstAt assembles record i into out without allocating.
func (s *SoA) InstAt(i int, out *isa.Inst) {
	out.PC = s.PC[i]
	out.Addr = s.Addr[i]
	out.Target = s.Target[i]
	out.Src1 = s.Src1[i]
	out.Src2 = s.Src2[i]
	out.Dst = s.Dst[i]
	out.Class = isa.Class(s.Meta[i] & MetaClassMask)
	out.Taken = s.Meta[i]&MetaTakenBit != 0
}

// At returns record i as an isa.Inst value.
func (s *SoA) At(i int) isa.Inst {
	var in isa.Inst
	s.InstAt(i, &in)
	return in
}

// maxSoALen bounds the packed trace length so dependence indices fit int32.
const maxSoALen = 1<<31 - 1

// Pack converts an in-memory trace to the struct-of-arrays layout and
// computes its dependence metadata in one pass. Records are assumed valid
// (traces from the decoder and the workload generator always are); Pack
// panics if the trace exceeds the 2^31-1 records an int32 dependence index
// can address.
func Pack(t *Trace) *SoA {
	s := newSoA(len(t.Insts))
	var reg regState
	for i := range t.Insts {
		s.appendInst(&t.Insts[i], &reg)
	}
	return s
}

// PackReader drains r into the struct-of-arrays layout, computing dependence
// metadata as it goes. It is the streaming analogue of Pack for traces that
// come from a generator or decoder rather than an in-memory slice.
func PackReader(r Reader) (*SoA, error) {
	s := newSoA(0)
	var reg regState
	for {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if s.Len() >= maxSoALen {
			return nil, fmt.Errorf("trace: packed trace exceeds %d records", maxSoALen)
		}
		s.appendInst(&in, &reg)
	}
	return s, nil
}

// regState tracks producer indices while packing: the most recent writer of
// each architectural register and the youngest store per 8-byte word.
type regState struct {
	producer [isa.NumRegs]int32
	store    map[uint64]int32
	init     bool
}

func (r *regState) ensure() {
	if r.init {
		return
	}
	for i := range r.producer {
		r.producer[i] = NoDep
	}
	r.store = make(map[uint64]int32)
	r.init = true
}

func newSoA(capHint int) *SoA {
	if capHint > maxSoALen {
		panic(fmt.Sprintf("trace: cannot pack %d records into int32 dependence indices", capHint))
	}
	return &SoA{
		PC:     make([]uint64, 0, capHint),
		Addr:   make([]uint64, 0, capHint),
		Target: make([]uint64, 0, capHint),
		Src1:   make([]int8, 0, capHint),
		Src2:   make([]int8, 0, capHint),
		Dst:    make([]int8, 0, capHint),
		Meta:   make([]uint8, 0, capHint),
		Dep1:   make([]int32, 0, capHint),
		Dep2:   make([]int32, 0, capHint),
		DepMem: make([]int32, 0, capHint),
	}
}

func (s *SoA) appendInst(in *isa.Inst, reg *regState) {
	reg.ensure()
	i := int32(len(s.Meta))
	meta := uint8(in.Class) & MetaClassMask
	if in.Taken {
		meta |= MetaTakenBit
	}
	dep := func(r int8) int32 {
		if r == isa.NoReg {
			return NoDep
		}
		return reg.producer[r]
	}
	d1, d2, dm := dep(in.Src1), dep(in.Src2), NoDep
	switch in.Class {
	case isa.Load:
		if p, ok := reg.store[in.Addr/8]; ok {
			dm = p
		}
	case isa.Store:
		reg.store[in.Addr/8] = i
	}
	if in.Dst != isa.NoReg {
		reg.producer[in.Dst] = i
	}
	s.PC = append(s.PC, in.PC)
	s.Addr = append(s.Addr, in.Addr)
	s.Target = append(s.Target, in.Target)
	s.Src1 = append(s.Src1, in.Src1)
	s.Src2 = append(s.Src2, in.Src2)
	s.Dst = append(s.Dst, in.Dst)
	s.Meta = append(s.Meta, meta)
	s.Dep1 = append(s.Dep1, d1)
	s.Dep2 = append(s.Dep2, d2)
	s.DepMem = append(s.DepMem, dm)
}

// Unpack converts back to the array-of-structs Trace (mostly for tests and
// tools that want the simple layout).
func (s *SoA) Unpack() *Trace {
	t := &Trace{Insts: make([]isa.Inst, s.Len())}
	for i := range t.Insts {
		s.InstAt(i, &t.Insts[i])
	}
	return t
}

// Reader returns a fresh streaming reader over the packed trace. The
// returned reader satisfies the ordinary Reader contract, and the simulator
// recognizes its concrete type to switch to the index-based hot path.
func (s *SoA) Reader() *SoAReader { return &SoAReader{soa: s} }

// SoAReader streams a packed trace through the generic Reader interface
// while exposing the underlying arrays for consumers that can use them.
type SoAReader struct {
	soa *SoA
	pos int
}

// Next implements Reader.
func (r *SoAReader) Next() (isa.Inst, error) {
	if r.pos >= r.soa.Len() {
		return isa.Inst{}, io.EOF
	}
	in := r.soa.At(r.pos)
	r.pos++
	return in, nil
}

// SoA returns the backing packed trace.
func (r *SoAReader) SoA() *SoA { return r.soa }

// Pos returns the number of records already consumed through Next.
func (r *SoAReader) Pos() int { return r.pos }
