package atm

import (
	"errors"
	"fmt"
)

// Cell header wire codec (ITU-T I.361 UNI format, 5 bytes):
//
//	byte 0: GFC(4) | VPI[7:4]
//	byte 1: VPI[3:0] | VCI[15:12]
//	byte 2: VCI[11:4]
//	byte 3: VCI[3:0] | PTI(3) | CLP(1)
//	byte 4: HEC — CRC-8 over bytes 0–3, polynomial x^8+x^2+x+1, XOR 0x55
//	        (the I.432 coset, so an all-zero header does not self-verify)
//
// The simulation moves Cell structs, not bytes; the codec is what a fault
// injector's header corruption is judged by, and the fuzz tests pin it
// down. Canonical form is what the testbed's point-to-point UNI produces:
// GFC = 0, VPI = 0, CLP = 0. The AAL5 user bit (PTI bit 0) carries EOP, and
// the simulator's direct-access mark (§3.6) is modeled as the otherwise
// reserved PTI bit 2. Decode rejects anything non-canonical, which makes
// DecodeHeader(EncodeHeader(c)) the identity and every encodable header a
// decodable one.

// Header decode errors.
var (
	// ErrBadHEC reports a header checksum mismatch. The HEC's CRC-8 detects
	// all single-bit header corruptions; real interfaces drop such cells
	// silently, which the loss model represents upstream.
	ErrBadHEC = errors.New("atm: cell header HEC mismatch")
	// ErrHeaderFormat reports a header outside the canonical form the
	// simulated network produces (nonzero GFC, VPI, CLP, or a PTI codepoint
	// the model does not use).
	ErrHeaderFormat = errors.New("atm: non-canonical cell header")
)

// hec computes the header error control byte over the first four header
// bytes.
func hec(h []byte) byte {
	var crc byte
	for _, b := range h[:HeaderSize-1] {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc ^ 0x55
}

// EncodeHeader packs the cell's routing fields into the canonical 5-byte
// UNI header.
func (c Cell) EncodeHeader() [HeaderSize]byte {
	var h [HeaderSize]byte
	pti := byte(0)
	if c.EOP {
		pti |= 1
	}
	if c.Direct {
		pti |= 4
	}
	h[1] = byte(c.VCI >> 12)
	h[2] = byte(c.VCI >> 4)
	h[3] = byte(c.VCI)<<4 | pti<<1
	h[4] = hec(h[:])
	return h
}

// DecodeHeader parses a 5-byte UNI header, returning a Cell with the
// routing fields set (and a zero payload). It verifies the HEC and rejects
// non-canonical headers, so it is the exact inverse of EncodeHeader.
func DecodeHeader(h [HeaderSize]byte) (Cell, error) {
	if h[4] != hec(h[:]) {
		//unetlint:allow hotpathalloc only a fault injector's header damage gets here; a cell on a clean link is never re-decoded
		return Cell{}, fmt.Errorf("%w: got %02x want %02x", ErrBadHEC, h[4], hec(h[:]))
	}
	if h[0] != 0 || h[1]&0xF0 != 0 {
		return Cell{}, fmt.Errorf("%w: nonzero GFC/VPI", ErrHeaderFormat)
	}
	if h[3]&1 != 0 {
		return Cell{}, fmt.Errorf("%w: CLP set", ErrHeaderFormat)
	}
	pti := h[3] >> 1 & 7
	if pti&2 != 0 {
		//unetlint:allow hotpathalloc only a fault injector's header damage gets here; a cell on a clean link is never re-decoded
		return Cell{}, fmt.Errorf("%w: unsupported PTI %03b", ErrHeaderFormat, pti)
	}
	var c Cell
	c.VCI = VCI(h[1])<<12 | VCI(h[2])<<4 | VCI(h[3]>>4)
	c.EOP = pti&1 != 0
	c.Direct = pti&4 != 0
	return c, nil
}
