// Command aicd is the checkpoint replication peer daemon: it listens for
// the remote package's wire protocol and applies incoming operations to an
// FSStore on a directory (or, with -mem, on an in-memory filesystem, for
// experiments). A group of aicd instances plus a client configured with
// aic.WithReplication forms the paper's networked multi-level checkpoint
// hierarchy: L1 stays on the writing node, and aicd peers play the L2/L3
// partner-group and remote-storage roles.
//
// Usage:
//
//	aicd -listen :9337 -dir /var/lib/aic/peer
//	aicd -listen :9337 -dir /var/lib/aic/peer -metrics :9338
//	aicd -listen :9337 -dir /var/lib/aic/peer -quota-bytes 1073741824 -quota-chains 64
//	aicd -listen :9337 -dir /var/lib/aic/peer -dedup -compact-interval 1m
//
// -dedup turns on chunk-level content-addressed storage: checkpoints are
// cut into content-defined chunks and identical content — across procs,
// tenants and ring replicas landing on this peer — is stored once, with
// durable refcounts. -compact-interval arms the online chain compactor:
// chains longer than -compact-max-chain are folded into a fresh full
// anchor plus the -compact-keep newest elements without pausing incoming
// replication, and unreferenced chunks are garbage-collected after each
// pass. See DESIGN.md §16.
//
// A peer is multi-tenant: clients address chains as
// (tenant, proc), each tenant isolated in its own namespace of the one
// backing store. -quota-bytes / -quota-chains cap every tenant's stored
// bytes and chain count (rejections are terminal quota errors at the
// client), and -staging-max bounds the staging pool partial transfers may
// pin (excess writers get transient backpressure and retry with backoff).
//
// With -metrics, the daemon exposes its live instrumentation (DESIGN.md
// §14) as Prometheus text at /metrics, plus an observe-only saturation
// controller's state at /control.
//
// The store directory is scrub-compatible with aicfsck, which can also
// check a running peer over the wire with -peer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aic/internal/compact"
	"aic/internal/control"
	"aic/internal/metrics"
	"aic/internal/remote"
	"aic/internal/storage"
)

func main() {
	listen := flag.String("listen", ":9337", "address to accept replication connections on")
	dir := flag.String("dir", "", "durable checkpoint store root (required unless -mem)")
	mem := flag.Bool("mem", false, "serve a store over an in-memory filesystem instead of a directory (volatile; for experiments)")
	idle := flag.Duration("idle", 2*time.Minute, "per-connection idle timeout")
	quiet := flag.Bool("quiet", false, "suppress per-connection diagnostics")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and controller /control on this address (e.g. :9338; empty disables)")
	controlEvery := flag.Duration("control-interval", time.Second, "saturation-controller sampling interval (with -metrics)")
	quotaBytes := flag.Int64("quota-bytes", 0, "per-tenant stored-byte quota; writes past it are rejected with a quota error (0 = unlimited)")
	quotaChains := flag.Int("quota-chains", 0, "per-tenant chain-count quota (stripe chains excluded; 0 = unlimited)")
	stagingMax := flag.Int64("staging-max", 0, "bound on in-flight transfer staging bytes; clients past it back off and retry (0 = default 256 MiB)")
	dedup := flag.Bool("dedup", false, "store checkpoints as content-addressed chunks; identical content across procs/tenants is stored once")
	compactEvery := flag.Duration("compact-interval", 0, "run the online chain compactor this often (0 disables)")
	compactMaxChain := flag.Int("compact-max-chain", compact.DefaultMaxChain, "chain length that triggers compaction")
	compactKeep := flag.Int("compact-keep", compact.DefaultKeep, "newest chain elements a compaction keeps (the restore-rewind bound)")
	flag.Parse()

	var fs *storage.FSStore
	switch {
	case *mem:
		fs = storage.NewMemStore(storage.Target{Name: "aicd-mem"})
	case *dir == "":
		fmt.Fprintln(os.Stderr, "aicd: -dir is required (or -mem for a volatile store)")
		os.Exit(2)
	default:
		var err error
		fs, err = storage.NewFSStore(*dir, storage.Target{Name: "aicd"})
		if err != nil {
			log.Fatalf("aicd: %v", err)
		}
	}

	// Quota admission wraps the raw store: every tenant namespace gets the
	// same default limits, enforced before any replication byte lands.
	var store storage.Store = fs
	var quota *storage.QuotaStore
	if *quotaBytes > 0 || *quotaChains > 0 {
		quota = storage.NewQuotaStore(fs, storage.Quota{MaxBytes: *quotaBytes, MaxChains: *quotaChains})
		store = quota
		log.Printf("aicd: per-tenant quota: %d bytes, %d chains (0 = unlimited)", *quotaBytes, *quotaChains)
	}

	cfg := remote.ServerConfig{IdleTimeout: *idle, MaxStagingBytes: *stagingMax}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv := remote.NewServer(store, cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("aicd: %v", err)
	}
	log.Printf("aicd: serving checkpoint replication on %s", ln.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		srv.SetMetrics(reg)
		fs.SetMetrics(reg)
		if quota != nil {
			quota.SetMetrics(reg)
		}
		// The daemon's controller observes only: it classifies this peer's
		// saturation for operators (and the /control endpoint), and nothing
		// here reads its level — the replication decision belongs to the
		// writing node's CheckpointDir controller.
		ctrl := control.New(control.Config{}, control.NewRegistryCollector(reg), reg)
		go ctrl.Run(ctx, *controlEvery)

		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/control", ctrl.Handler())
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("aicd: metrics listener: %v", err)
		}
		log.Printf("aicd: serving /metrics and /control on %s", mln.Addr())
		msrv := &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("aicd: metrics server: %v", err)
			}
		}()
		defer msrv.Close()
	}

	if *dedup {
		if err := fs.EnableDedup(ctx, storage.DedupConfig{}); err != nil {
			log.Fatalf("aicd: dedup: %v", err)
		}
		st, _ := fs.DedupStats(ctx)
		log.Printf("aicd: content-addressed dedup on: %d chunks, ratio %.2f", st.Chunks, st.Ratio())
	}
	if *compactEvery > 0 {
		comp := compact.New(fs, compact.Config{MaxChain: *compactMaxChain, Keep: *compactKeep, Metrics: reg})
		go func() {
			if err := comp.Run(ctx, *compactEvery); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("aicd: compactor: %v", err)
			}
		}()
		log.Printf("aicd: compactor armed: every %v, max-chain %d, keep %d", *compactEvery, *compactMaxChain, *compactKeep)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("aicd: %v: shutting down", s)
		cancel()
		srv.Close()
	}()

	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatalf("aicd: %v", err)
	}
}
