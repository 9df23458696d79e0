package storage

import "context"

type migrationCtxKey struct{}

// WithMigration marks ctx as carrying rebalance-migration traffic: copies
// of already-committed chain elements moving between peers after a ring
// membership change. Quota admission does not apply to migration — the
// bytes were admitted against the tenant's quota when first written, and
// refusing the copy would strand a committed checkpoint on a peer that
// lost its placement. Usage accounting still applies, so a gaining peer
// may transiently read over quota until the losing peer releases its copy.
func WithMigration(ctx context.Context) context.Context {
	return context.WithValue(ctx, migrationCtxKey{}, true)
}

// IsMigration reports whether ctx was marked by WithMigration.
func IsMigration(ctx context.Context) bool {
	v, _ := ctx.Value(migrationCtxKey{}).(bool)
	return v
}

type sealedReadCtxKey struct{}

// WithSealedRead marks ctx as a read whose caller checks every body it
// admits end to end — decodes it, checking the checkpoint frame's own
// CRC-32C trailer — so a transport may leave the bodies out of its own
// per-frame checksum: a remote peer then checksums each restored byte once,
// at the caller, instead of once per hop. A caller that moves or compares
// bytes without decoding them must not mark its ctx.
func WithSealedRead(ctx context.Context) context.Context {
	return context.WithValue(ctx, sealedReadCtxKey{}, true)
}

// IsSealedRead reports whether ctx was marked by WithSealedRead.
func IsSealedRead(ctx context.Context) bool {
	v, _ := ctx.Value(sealedReadCtxKey{}).(bool)
	return v
}
