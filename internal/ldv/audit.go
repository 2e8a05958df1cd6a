package ldv

import (
	"fmt"

	"ldv/internal/obs"
)

// Audit runs the given applications under full LDV monitoring — the
// `ldv-audit <app>` entry point. It installs the apps, starts the DB
// server (as the first traced step, per §IX-A), runs each app binary in
// order, stops the server, and returns the auditor holding the combined
// execution trace and all packaging inputs.
func Audit(m *Machine, apps []App) (*Auditor, error) {
	return AuditWithOptions(m, apps, AuditOptions{CollectLineage: true})
}

// AuditOptions tune a monitored run.
type AuditOptions struct {
	// CollectLineage enables DB provenance collection. Required for
	// server-included packaging; disable it to reproduce the cheaper
	// server-excluded-only audit configuration of §IX-B.
	CollectLineage bool
	// DisableDedup turns off the duplicate-suppression hash table of §VII-D
	// (ablation only).
	DisableDedup bool
}

// AuditWithOptions is Audit with explicit monitoring options.
func AuditWithOptions(m *Machine, apps []App, opts AuditOptions) (*Auditor, error) {
	// Stamp spans with the machine's logical clock so OS/DB events and
	// observability spans share one timeline for this run.
	obs.Default().SetLogicalClock(m.Kernel.Clock().Now)
	sp := obs.StartSpan("audit.run")
	defer sp.End()
	if err := m.InstallApps(apps); err != nil {
		return nil, err
	}
	aud := NewAuditor(m.Kernel)
	aud.CollectLineage = opts.CollectLineage
	aud.DedupDisabled = opts.DisableDedup
	aud.MarkServerBinary(ServerBinaryPath)
	defer aud.Detach()

	SetRuntime(m.Kernel, &Runtime{Mode: ModeAudit, Addr: m.Addr, Database: m.Database, Auditor: aud})
	defer ClearRuntime(m.Kernel)

	root := m.Kernel.Start("ldv-audit")
	if err := m.StartServer(root); err != nil {
		return nil, fmt.Errorf("audit: start server: %w", err)
	}
	var runErr error
	for _, app := range apps {
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			runErr = fmt.Errorf("audit: run %s: %w", app.Binary, err)
			break
		}
	}
	if err := m.StopServer(); err != nil && runErr == nil {
		runErr = fmt.Errorf("audit: stop server: %w", err)
	}
	root.Exit()
	if runErr != nil {
		return nil, runErr
	}
	return aud, nil
}

// Run executes the applications without monitoring — the plain-PostgreSQL
// baseline used by the evaluation.
func Run(m *Machine, apps []App) error {
	if err := m.InstallApps(apps); err != nil {
		return err
	}
	SetRuntime(m.Kernel, &Runtime{Mode: ModePlain, Addr: m.Addr, Database: m.Database})
	defer ClearRuntime(m.Kernel)

	root := m.Kernel.Start("run")
	if err := m.StartServer(root); err != nil {
		return fmt.Errorf("run: start server: %w", err)
	}
	var runErr error
	for _, app := range apps {
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			runErr = fmt.Errorf("run %s: %w", app.Binary, err)
			break
		}
	}
	if err := m.StopServer(); err != nil && runErr == nil {
		runErr = err
	}
	root.Exit()
	return runErr
}
