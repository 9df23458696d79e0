package storage

import (
	"errors"
	"testing"
)

func TestValidateTenantName(t *testing.T) {
	good := []string{"default", "acme", "Tenant-2", "a.b_c", "x"}
	for _, name := range good {
		if err := ValidateTenantName(name); err != nil {
			t.Errorf("ValidateTenantName(%q) = %v, want nil", name, err)
		}
	}
	bad := []string{"", ".", "..", "a/b", "a@b", "a#b", "a b", "\x00", string(make([]byte, 65))}
	for _, name := range bad {
		err := ValidateTenantName(name)
		if err == nil {
			t.Errorf("ValidateTenantName(%q) = nil, want error", name)
			continue
		}
		if !errors.Is(err, ErrBadProcName) {
			t.Errorf("ValidateTenantName(%q) = %v, want ErrBadProcName", name, err)
		}
	}
}

func TestValidateUserProcName(t *testing.T) {
	if err := ValidateUserProcName("proc-1"); err != nil {
		t.Fatalf("ValidateUserProcName(proc-1) = %v", err)
	}
	for _, name := range []string{"a@b", "a#b", "acme@db#s0of2", "", ".."} {
		err := ValidateUserProcName(name)
		if err == nil || !errors.Is(err, ErrBadProcName) {
			t.Errorf("ValidateUserProcName(%q) = %v, want ErrBadProcName", name, err)
		}
	}
	// The raw boundary still accepts separator names: the namespacing layer
	// itself writes through it.
	if err := ValidateProcName("acme@db#s0of2"); err != nil {
		t.Fatalf("ValidateProcName(composed) = %v, want nil", err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct{ tenant, proc, stripe string }{
		{"default", "db", ""},
		{"acme", "db", ""},
		{"acme", "db", "s0of4"},
		{"default", "web", "s3of4"},
		{"t.x_y-z", "p.q_r-s", "s11of12"},
	}
	for _, c := range cases {
		key := ComposeKey(c.tenant, c.proc, c.stripe)
		tenant, proc, stripe := ParseKey(key)
		if tenant != c.tenant || proc != c.proc || stripe != c.stripe {
			t.Errorf("ParseKey(ComposeKey(%v)) = (%q,%q,%q)", c, tenant, proc, stripe)
		}
	}
	// Legacy bare names parse into the default tenant.
	if tenant, proc, stripe := ParseKey("legacy-proc"); tenant != DefaultTenant || proc != "legacy-proc" || stripe != "" {
		t.Fatalf("ParseKey(legacy-proc) = (%q,%q,%q)", tenant, proc, stripe)
	}
	// The default tenant qualifies to the bare name: no migration for
	// pre-tenancy stores.
	if got := Qualify(DefaultTenant, "db"); got != "db" {
		t.Fatalf("Qualify(default, db) = %q", got)
	}
}

func TestParseStripeLabel(t *testing.T) {
	for _, c := range []struct{ i, n int }{{0, 1}, {0, 4}, {3, 4}, {11, 12}} {
		i, n, ok := ParseStripeLabel(StripeLabel(c.i, c.n))
		if !ok || i != c.i || n != c.n {
			t.Errorf("ParseStripeLabel(StripeLabel(%d,%d)) = (%d,%d,%v)", c.i, c.n, i, n, ok)
		}
	}
	for _, label := range []string{"", "s", "sof", "s1of", "sof2", "s-1of2", "s2of2", "s3of2", "s01of2", "s0of2x"} {
		if _, _, ok := ParseStripeLabel(label); ok {
			t.Errorf("ParseStripeLabel(%q) ok, want reject", label)
		}
	}
}
