package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Flags holds the shared observability flag values every command
// registers: log level, log format, and the optional debug HTTP
// address. Register the flags with RegisterFlags, then call Setup
// after flag parsing.
type Flags struct {
	// Level is the minimum log level: debug, info, warn, or error.
	Level string
	// Format selects the slog handler: "text" or "json".
	Format string
	// DebugAddr, when non-empty, serves /metrics, /healthz, /statusz,
	// /debug/vars (expvar, including the registry snapshot), and
	// /debug/pprof on that address.
	DebugAddr string
	// Version makes Setup print the build identity (see BuildString)
	// and exit 0 — the shared -version flag.
	Version bool

	name string
}

// RegisterFlags registers -log, -logfmt, -debug-addr, and -version on
// fs and returns the struct the parsed values land in.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{name: fs.Name()}
	fs.StringVar(&f.Level, "log", "info", "log level: debug, info, warn, or error")
	fs.StringVar(&f.Format, "logfmt", "text", "log format: text or json")
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /metrics, /healthz, /statusz, /debug/vars, and /debug/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&f.Version, "version", false, "print the build version and exit")
	return f
}

// VersionFlag registers just -version on fs, for the small analysis
// CLIs that don't carry the full observability flag set. It returns a
// function to call right after parsing: when the flag was given it
// prints the build identity (see BuildString) and exits 0.
func VersionFlag(fs *flag.FlagSet) func() {
	v := fs.Bool("version", false, "print the build version and exit")
	name := fs.Name()
	return func() {
		if *v {
			fmt.Println(BuildString(filepathBase(name)))
			os.Exit(0)
		}
	}
}

// ParseLevel maps a level name to its slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a slog.Logger writing to w in the given format at
// the given level.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
}

// Setup applies the parsed flags: it handles -version (print the
// build identity and exit 0), installs the process-default slog.Logger
// (writing to stderr), registers the build.info metric on reg, and, if
// -debug-addr was given, publishes reg through expvar and starts the
// debug HTTP server (with /metrics, /healthz, and /statusz). The
// returned logger is also the new slog default.
func (f *Flags) Setup(reg *Registry) (*slog.Logger, error) {
	if f.Version {
		fmt.Println(BuildString(filepathBase(f.name)))
		os.Exit(0)
	}
	level, err := ParseLevel(f.Level)
	if err != nil {
		return nil, err
	}
	logger, err := NewLogger(os.Stderr, f.Format, level)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(logger)
	// SetDefault routes the log package through slog at INFO. Its
	// lines are errors: the commands' log.Fatal, and the -debug-addr
	// server's net/http errors (accept failures, handler panics), which
	// go to the default log because that server sets no ErrorLog. Log
	// them at ERROR so they reach the operator at every -log level.
	slog.SetLogLoggerLevel(slog.LevelError)
	if reg != nil {
		RegisterBuildInfo(reg)
	}
	if f.DebugAddr != "" {
		addr, err := ServeDebug(f.DebugAddr, reg)
		if err != nil {
			return nil, err
		}
		logger.Info("debug endpoint up", "addr", addr.String(),
			"metrics", "/metrics", "health", "/healthz", "status", "/statusz",
			"vars", "/debug/vars", "pprof", "/debug/pprof/")
	}
	return logger, nil
}
