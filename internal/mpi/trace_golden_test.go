package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"aic/internal/core"
)

// traceDigest hashes every field of every record, floats as %.17g, so a
// drifted job-level cost changes it even where NET² does not.
func traceDigest(recs []core.IntervalRecord) string {
	h := sha256.New()
	for _, r := range recs {
		v := reflect.ValueOf(r)
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Float64:
				fmt.Fprintf(h, "%.17g ", f.Float())
			default:
				fmt.Fprintf(h, "%v ", f.Interface())
			}
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCoordinatedTraceGolden pins coordinated AIC's whole job-level trace
// at 1 and 4 ranks to digests captured from an earlier run.
func TestCoordinatedTraceGolden(t *testing.T) {
	for ranks, want := range map[int]string{
		1: "4a7b8255cb1852cde74e38ab69aed4c98c48bf7d740639a3bb5256b7f06e76a5",
		4: "e68b4fbd896cfeb593d2cb68767585a13d85242f638be9e4c7ed609fca726206",
	} {
		res, err := Run(testConfig(CoordinatedAIC, ranks))
		if err != nil {
			t.Fatal(err)
		}
		if got := traceDigest(res.Intervals); got != want {
			t.Errorf("%d ranks: %d intervals, trace digest %s, pinned at %s", ranks, len(res.Intervals), got, want)
		}
	}
}
