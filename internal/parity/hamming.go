package parity

import (
	"fmt"
	"math/bits"
	"sync"

	"cppc/internal/bitops"
)

// Hamming is an extended Hamming SECDED code over an arbitrary number of
// data bits (64 to 1024, in whole words). The simulator uses it at both
// levels of the paper's SECDED baseline: Hamming(64) is the (72,64) code
// on every L1 word, and the L2 configuration attaches one code to a whole
// block ("as an L2 cache, a SECDED is attached to a block instead of each
// word", Sec. 6). The fixed-width SECDED type is the same (72,64) code as
// Hamming(64); only tests and benches use it.
//
// The kernel is word-parallel. Check bit c is the parity of the data bits
// whose codeword position has bit c set, so for each (check bit, data
// word) pair a mask selects the covered bits of that word: check bit c is
// the parity of the XOR over w of data[w] & mask[c*words+w], one popcount
// per check bit instead of one branch per data bit. The overall parity
// bit is one XOR fold over the words plus one popcount.
//
// A code holds only tables fixed by its width, so it is immutable: one
// shared *Hamming per width is built on first use, and NewHamming
// returns it.
type Hamming struct {
	dataBits  int
	words     int      // dataBits / 64
	checkBits int      // Hamming check bits (excluding the overall parity bit)
	mask      []uint64 // mask[c*words+w]: bits of data word w covered by check bit c
}

// maxHammingWords is the widest supported code, in 64-bit words.
const maxHammingWords = 16

// hammingCodes[w-1] holds the shared code over w data words, built on
// first use.
var hammingCodes [maxHammingWords]struct {
	once sync.Once
	h    *Hamming
}

// buildHamming lays out a code over dataBits bits: check bits at the
// power-of-two codeword positions 1, 2, 4, ..., data bits in ascending
// order at the remaining positions 3, 5, 6, 7, 9, ...
func buildHamming(dataBits int) *Hamming {
	r := 0
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	n := dataBits + r // highest codeword position (positions 1..n)
	words := dataBits / 64
	h := &Hamming{
		dataBits:  dataBits,
		words:     words,
		checkBits: r,
		mask:      make([]uint64, r*words),
	}
	i := 0
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) == 0 {
			continue
		}
		for c := 0; c < r; c++ {
			if pos&(1<<uint(c)) != 0 {
				h.mask[c*words+i/64] |= 1 << uint(i%64)
			}
		}
		i++
	}
	return h
}

// NewHamming returns the SECDED code over dataBits bits of data, which
// must be a positive multiple of 64 no larger than 1024 (data is passed
// as []uint64). Codes are shared: every call for a width returns the same
// pointer.
func NewHamming(dataBits int) (*Hamming, error) {
	if dataBits <= 0 || dataBits > maxHammingWords*64 || dataBits%64 != 0 {
		return nil, fmt.Errorf("parity: unsupported Hamming data width %d", dataBits)
	}
	c := &hammingCodes[dataBits/64-1]
	c.once.Do(func() { c.h = buildHamming(dataBits) })
	return c.h, nil
}

// MustHamming is NewHamming that panics on error.
func MustHamming(dataBits int) *Hamming {
	h, err := NewHamming(dataBits)
	if err != nil {
		panic(err)
	}
	return h
}

// CheckBits is the total stored check bits: Hamming bits plus the overall
// parity bit. (10 for a 256-bit block.)
func (h *Hamming) CheckBits() int { return h.checkBits + 1 }

// Name identifies the code.
func (h *Hamming) Name() string {
	return fmt.Sprintf("secded-%d-%d", h.dataBits+h.CheckBits(), h.dataBits)
}

// hammingBits returns the Hamming check bits computed from data (bits
// 0..r-1) and the XOR fold of its words, whose parity is the data's
// share of the overall parity. data must hold exactly h.words words.
func (h *Hamming) hammingBits(data []uint64) (check, fold uint64) {
	data = data[:h.words]
	m := h.mask
	if len(data) == 1 {
		// The per-word L1 code: one AND and one popcount per check bit.
		d := data[0]
		for c, mk := range m {
			check |= uint64(bits.OnesCount64(d&mk)&1) << uint(c)
		}
		return check, d
	}
	for c := 0; len(m) > 0; c++ {
		row := m[:len(data)]
		m = m[len(data):]
		var acc uint64
		for w, mk := range row {
			acc ^= data[w] & mk
		}
		check |= uint64(bits.OnesCount64(acc)&1) << uint(c)
	}
	return check, bitops.FoldLine(data)
}

// Encode computes the check bits for data (exactly dataBits/64 words):
// bits 0..r-1 are the Hamming check bits, bit r the overall parity over
// the whole codeword.
func (h *Hamming) Encode(data []uint64) uint64 {
	check, fold := h.hammingBits(data)
	total := uint64(bits.OnesCount64(fold)+bits.OnesCount64(check)) & 1
	return check | total<<uint(h.checkBits)
}

// HammingResult reports a decode: the outcome reuses the SECDED
// classifications; DataBit is the corrected data bit index (or -1).
type HammingResult struct {
	Outcome SECDEDOutcome
	DataBit int
}

// Decode checks received data (exactly dataBits/64 words) against
// received check bits; bits of check above the overall parity bit are
// ignored. The syndrome and the overall parity come from one pass over
// the data. On SECDEDCorrectedData the caller must flip DataBit of the
// data.
func (h *Hamming) Decode(data []uint64, check uint64) HammingResult {
	computed, fold := h.hammingBits(data)
	mask := uint64(1)<<uint(h.checkBits) - 1
	syndrome := int((check ^ computed) & mask)
	overallMismatch := (bits.OnesCount64(fold)+bits.OnesCount64(check&(mask<<1|1)))&1 != 0

	switch {
	case syndrome == 0 && !overallMismatch:
		return HammingResult{Outcome: SECDEDClean, DataBit: -1}
	case overallMismatch:
		if syndrome&(syndrome-1) == 0 {
			// Zero (the overall parity bit flipped) or a power of two (a
			// Hamming check bit flipped): the data is intact.
			return HammingResult{Outcome: SECDEDCorrectedCheck, DataBit: -1}
		}
		if syndrome <= h.dataBits+h.checkBits {
			// Positions 1..syndrome hold bits.Len(syndrome) check bits;
			// the rest are data bits 0, 1, ... in order.
			return HammingResult{Outcome: SECDEDCorrectedData, DataBit: syndrome - bits.Len(uint(syndrome)) - 1}
		}
		return HammingResult{Outcome: SECDEDDoubleError, DataBit: -1}
	default:
		return HammingResult{Outcome: SECDEDDoubleError, DataBit: -1}
	}
}
