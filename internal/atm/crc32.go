package atm

import "hash/crc32"

// AAL5 protects each PDU with a CRC-32 using the IEEE 802.3 generator
// polynomial, bit-reflected, initialized to all ones and finally
// complemented — hash/crc32's IEEE checksum.
//
// On the SBA-100 this checksum had to be computed in software and accounted
// for 33% of the send and 40% of the receive AAL5 overhead (paper §4.1);
// the SBA-200 computes it in hardware. The NIC models charge time
// accordingly, from nic.Params; both run this code to actually protect the
// bits so that corruption injected by the fabric is detected end to end.

// CRC32 returns the AAL5 CRC-32 of data.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// CRC32Update folds data into a running CRC state (pre-inversion form).
// Start from 0xFFFFFFFF and complement the final value, or use CRC32.
func CRC32Update(state uint32, data []byte) uint32 {
	return ^crc32.Update(^state, crc32.IEEETable, data)
}
