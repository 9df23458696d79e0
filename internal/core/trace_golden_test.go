package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"aic/internal/workload"
)

// traceDigest hashes every field of every record, floats as %.17g, so a
// drifted w*_L, iteration count or prediction changes it even where NET²
// does not.
func traceDigest(recs []IntervalRecord) string {
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

// TestDecisionTraceGolden pins the whole decision trace of one AIC run and
// one naive-predictor run — every interval's costs, w*_L, Newton–Raphson
// iterations and predictions — to digests captured from an earlier run.
func TestDecisionTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog workload.Program
		cfg  Config
		want string
	}{
		{"aic-sphinx3", workload.Sphinx3(4), Config{Policy: PolicyAIC},
			"8c6394e4c14c609cb1817da1c2709c397237672a154cf9ffba88b523a1d98892"},
		{"naive-sphinx3", workload.Sphinx3(4), Config{Policy: PolicyAIC, NaivePredictor: true},
			"8ddc5e1bbb57f439385af3ece83724b555a589b1f0385b7bd1a9ce0be9e4d93e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.System, tc.cfg.Lambda = benchSys(), benchLambda()
			res, err := NewRuntime(tc.prog, tc.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := traceDigest(res.Intervals); got != tc.want {
				t.Errorf("%d intervals, trace digest %s, pinned at %s", len(res.Intervals), got, tc.want)
			}
		})
	}
}
