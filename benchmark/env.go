package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// envRecord is written into every result file: enough to tell whether two
// files are comparable at all.
type envRecord struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	// VolumeFS is the file-system type of the directory the mail_sync_vol
	// volume file lives in.
	VolumeFS string `json:"volume_fs"`
}

func readEnv(workDir string) envRecord {
	return envRecord{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel(),
		VolumeFS:   volumeFS(workDir),
	}
}

// volumeFS names the file system the work directory (created if need be)
// is on.
func volumeFS(workDir string) string {
	var st syscall.Statfs_t
	if os.MkdirAll(workDir, 0o755) != nil || syscall.Statfs(workDir, &st) != nil {
		return "unknown"
	}
	return fsName(int64(st.Type))
}

// commit is the VCS revision stamped into the binary, else `git rev-parse`,
// else "unknown" (a checkout that is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("%#x", magic)
}

// notComparable says why a workload's numbers, taken with its volume file on
// file system fs, must not be compared with numbers from elsewhere, or ""
// when they may be.
func notComparable(workload, fs string) string {
	if workload == "mail_sync_vol" && (fs == "tmpfs" || fs == "ramfs") {
		return "mail_sync_vol: the volume file is on " + fs +
			", where msync writes nothing back and costs nothing; its numbers say nothing about a disk-backed volume and are marked not comparable (point -workdir at a disk-backed directory)"
	}
	return ""
}
