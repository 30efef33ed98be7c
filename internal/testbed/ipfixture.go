package testbed

import (
	"unet/internal/ip"
	"unet/internal/unet"
)

// NewIPConduitPair builds the §7.1 configuration between hosts a and b:
// one endpoint each, one U-Net channel carrying all IP traffic, receive
// buffers provisioned, and an ip.UNetConduit on each side.
func (tb *Testbed) NewIPConduitPair(a, b int) (*ip.UNetConduit, *ip.UNetConduit, error) {
	// IP staging needs room for the conduit's send ring plus the receive
	// buffers: use a 1 MB segment with 9 KB receive buffers.
	cfg := unet.EndpointConfig{
		SegmentSize:  1 << 20,
		RecvBufSize:  ip.MTU,
		SendQueueCap: 64,
		RecvQueueCap: 128,
		FreeQueueCap: 64,
	}
	for _, h := range []int{a, b} {
		k := tb.Hosts[h].Kernel
		lim := k.Limits()
		if lim.MaxQueueCap < cfg.RecvQueueCap {
			lim.MaxQueueCap = cfg.RecvQueueCap
			k.SetLimits(lim)
		}
	}
	pr, err := tb.NewPair(a, b, cfg, 36)
	if err != nil {
		return nil, nil, err
	}
	ca, err := ip.NewUNetConduit(pr.EpA, pr.ChA, uint32(a+1), uint32(b+1), pr.StageA)
	if err != nil {
		return nil, nil, err
	}
	cb, err := ip.NewUNetConduit(pr.EpB, pr.ChB, uint32(b+1), uint32(a+1), pr.StageB)
	return ca, cb, err
}
