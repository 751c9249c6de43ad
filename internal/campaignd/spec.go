package campaignd

import (
	"errors"
	"fmt"
	"regexp"

	"repro/internal/manifest"
)

// maxPriority caps the DRR weight a tenant can request, so one tenant
// cannot buy unbounded scheduling share with a large number.
const maxPriority = 8

// tenantRE constrains tenant names to something safe for metric labels,
// JSON, and log lines. Campaign directories are named by server-assigned
// IDs, so tenants never name filesystem paths, but the label hygiene
// still matters.
var tenantRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,31}$`)

// Spec is one campaign submission: the existing manifest format plus the
// multi-tenant metadata the scheduler consumes.
type Spec struct {
	// Tenant is the submitting tenant's identity (lowercase alphanumeric
	// plus ._-, at most 32 chars). Admission caps and fair-share
	// scheduling are per tenant.
	Tenant string `json:"tenant"`
	// Priority is the tenant-requested scheduling weight, 1 (default)
	// to 8. A priority-2 campaign's tenant accrues deficit credit twice
	// as fast as a priority-1 one — more share, never exclusive access.
	Priority int `json:"priority,omitempty"`
	// Manifest is the campaign itself, unchanged from the CLI format.
	Manifest *manifest.Manifest `json:"manifest"`
}

// Validate checks the submission before it is admitted.
func (s *Spec) Validate() error {
	if s == nil {
		return errors.New("campaignd: nil spec")
	}
	if !tenantRE.MatchString(s.Tenant) {
		return fmt.Errorf("campaignd: invalid tenant %q (want %s)", s.Tenant, tenantRE)
	}
	if s.Priority < 0 || s.Priority > maxPriority {
		return fmt.Errorf("campaignd: priority %d out of range [0,%d]", s.Priority, maxPriority)
	}
	if s.Manifest == nil {
		return errors.New("campaignd: spec has no manifest")
	}
	return s.Manifest.Validate()
}

// Weight is the spec's effective DRR weight.
func (s *Spec) Weight() int {
	if s.Priority <= 0 {
		return 1
	}
	if s.Priority > maxPriority {
		return maxPriority
	}
	return s.Priority
}

// Cost is the campaign's scheduling cost in simulated runs — the unit
// deficits accrue in. It sums the entries' population sizes as the
// runner resolves them, so the scheduler charges what the fleet will
// actually execute (analyses re-collect on top of this for adaptive mode,
// but population generation dominates).
func (s *Spec) Cost() int {
	total := 0
	for _, e := range s.Manifest.Entries {
		total += s.Manifest.EntryRuns(e)
	}
	return total
}
