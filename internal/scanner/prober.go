package scanner

import (
	"context"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// Prober is the shared scanning surface the rest of the stack probes
// through: tga, hitlist, alias and longitudinal all take it. *Scanner
// implements it, as does a cluster pool; tests substitute oracles.
//
// Scan returns one classified Result per unique target; ScanActive is the
// hit-addresses-only convenience most consumers want.
type Prober interface {
	Scan(targets []ipaddr.Addr, p proto.Protocol) []Result
	ScanActive(targets []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr
}

// ContextProber is the cancellable variant of Prober. Consumers that hold
// a Prober type-assert for it and prefer the context-aware calls when
// available, falling back to the blocking ones otherwise.
type ContextProber interface {
	ScanContext(ctx context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]Result, error)
	ScanActiveContext(ctx context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]ipaddr.Addr, error)
}
