package storage

import (
	"fmt"
	"strings"
)

// DefaultTenant is the namespace every legacy (pre-tenancy) chain lives in.
// Default-tenant chains are stored under their bare proc names, so stores
// written before the multi-tenant service existed read back unchanged.
const DefaultTenant = "default"

// TenantSep joins a tenant and a proc name into one flat store key. The
// character is reserved at the user API boundary (ValidateUserProcName
// rejects it), which is what keeps Qualify injective: any separator in a
// stored name was put there by the namespacing layer, never by a caller.
const TenantSep = "@"

// StripeSep marks a stripe chain derived from a user proc: a large
// checkpoint striped across ring peers stores stripe i of n under
// "<qualified>#s<i>of<n>". Reserved at the user boundary like TenantSep,
// so a stored "#" always identifies library-derived stripe chains.
const StripeSep = "#"

// ValidateTenantName reports whether tenant is acceptable as a namespace
// identifier. Tenant names become key prefixes and quota-ledger keys, so
// the rule is stricter than proc names: 1–64 characters drawn from
// [a-zA-Z0-9._-], not "." or "..". The error wraps ErrBadProcName so one
// errors.Is covers every naming rejection at a store boundary.
func ValidateTenantName(tenant string) error {
	if tenant == "" {
		return fmt.Errorf("storage: %w: empty tenant name", ErrBadProcName)
	}
	if len(tenant) > 64 {
		return fmt.Errorf("storage: %w: tenant name longer than 64 bytes", ErrBadProcName)
	}
	if tenant == "." || tenant == ".." {
		return fmt.Errorf("storage: %w: tenant %q is a directory reference", ErrBadProcName, tenant)
	}
	for _, r := range tenant {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("storage: %w: tenant %q contains %q (want [a-zA-Z0-9._-])", ErrBadProcName, tenant, r)
		}
	}
	return nil
}

// ValidateUserProcName is the user-facing proc-name rule: everything
// ValidateProcName rejects, plus the tenant and stripe separators. Raw
// stores keep accepting the separators — the namespacing layer itself
// writes qualified names through them — but a name arriving from a caller
// must not be able to impersonate another tenant's key or a stripe chain,
// so the facade and the replication server enforce this stricter form on
// every proc a client supplies.
func ValidateUserProcName(proc string) error {
	if err := ValidateProcName(proc); err != nil {
		return err
	}
	if strings.Contains(proc, TenantSep) {
		return fmt.Errorf("storage: %w: %q contains %q (reserved for tenant namespacing)", ErrBadProcName, proc, TenantSep)
	}
	if strings.Contains(proc, StripeSep) {
		return fmt.Errorf("storage: %w: %q contains %q (reserved for stripe chains)", ErrBadProcName, proc, StripeSep)
	}
	return nil
}

// StripeLabel names stripe i of an n-way striped checkpoint.
func StripeLabel(i, n int) string { return fmt.Sprintf("s%dof%d", i, n) }

// ParseStripeLabel inverts StripeLabel, rejecting anything that does not
// round-trip exactly.
func ParseStripeLabel(label string) (i, n int, ok bool) {
	if _, err := fmt.Sscanf(label, "s%dof%d", &i, &n); err != nil {
		return 0, 0, false
	}
	if i < 0 || n <= 0 || i >= n || StripeLabel(i, n) != label {
		return 0, 0, false
	}
	return i, n, true
}

// ComposeKey builds the flat store key for (tenant, proc, stripe): the
// qualified name, plus "#<stripe>" when a stripe label is given.
func ComposeKey(tenant, proc, stripe string) string {
	key := Qualify(tenant, proc)
	if stripe != "" {
		key += StripeSep + stripe
	}
	return key
}

// ParseKey inverts ComposeKey. User proc names can contain neither
// separator (ValidateUserProcName), so the first "@" and the first "#"
// after it decompose any library-produced key unambiguously; a bare legacy
// name parses as (default tenant, name, no stripe).
func ParseKey(name string) (tenant, proc, stripe string) {
	tenant, rest := SplitQualified(name)
	if i := strings.Index(rest, StripeSep); i >= 0 {
		return tenant, rest[:i], rest[i+1:]
	}
	return tenant, rest, ""
}

// Qualify maps (tenant, proc) onto the flat key space raw stores use.
// The default tenant maps to the bare proc name — legacy chains and legacy
// peers need no migration — and every other tenant prefixes "tenant@".
func Qualify(tenant, proc string) string {
	if tenant == DefaultTenant || tenant == "" {
		return proc
	}
	return tenant + TenantSep + proc
}

// SplitQualified inverts Qualify: a name without a separator belongs to the
// default tenant. User proc names cannot contain the separator (see
// ValidateUserProcName), so the split is unambiguous for every name the
// namespacing layer produced.
func SplitQualified(name string) (tenant, proc string) {
	if i := strings.Index(name, TenantSep); i >= 0 {
		return name[:i], name[i+1:]
	}
	return DefaultTenant, name
}
