// Package atm models the ATM wire format used by the U-Net prototypes:
// 53-byte cells carrying 48-byte payloads on virtual channels, and the AAL5
// adaptation layer (segmentation, reassembly and CRC-32) that both Fore
// SBA-100/SBA-200 interfaces transported packets with.
package atm

// Wire and adaptation-layer size constants.
const (
	// CellSize is the full ATM cell size on the wire (5-byte header +
	// 48-byte payload).
	CellSize = 53
	// HeaderSize is the ATM cell header size.
	HeaderSize = 5
	// PayloadSize is the cell payload capacity.
	PayloadSize = 48
	// TrailerSize is the AAL5 CPCS trailer size (UU, CPI, length, CRC-32).
	TrailerSize = 8
	// SingleCellMax is the largest AAL5 PDU payload that fits in one cell
	// alongside the trailer. The U-Net firmware's single-cell fast path
	// (paper §4.2.2) applies to messages up to this size.
	SingleCellMax = PayloadSize - TrailerSize
	// MaxPDU is the largest AAL5 payload (16-bit length field).
	MaxPDU = 65535
)

// VCI is an ATM virtual channel identifier. ATM is connection oriented:
// a VCI names a one-way connection set up out of band (in U-Net, by the
// kernel during channel registration).
type VCI uint16

// Cell is one ATM cell. Only the fields the simulation needs are modeled:
// the VCI, the AAL5 end-of-PDU indication (PTI user bit), and the payload.
type Cell struct {
	VCI VCI
	EOP bool // end of AAL5 PDU (ATM-layer-user-to-user PTI bit)
	// Direct marks a direct-access U-Net PDU (§3.6): the payload begins
	// with a deposit-offset header. Modeled as a reserved PTI codepoint.
	Direct  bool
	Payload [PayloadSize]byte
}

// CellsFor returns the number of cells an n-byte AAL5 PDU occupies on the
// wire: payload plus 8-byte trailer, padded up to a whole number of cells.
// This quantization is what produces the sawtooth in the paper's AAL5
// bandwidth-limit curve (Figure 4).
func CellsFor(n int) int {
	if n < 0 {
		return 0
	}
	return (n + TrailerSize + PayloadSize - 1) / PayloadSize
}
