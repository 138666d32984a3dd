//! CPU affinity of threads — the workspace's one home for the raw
//! `sched_{get,set}affinity` calls (no `libc` crate offline, so the
//! declarations are hand-written). Linux only; elsewhere every query
//! answers `None`/`false` and callers run unpinned.

/// A set of CPUs, laid out as glibc's default `cpu_set_t` (1024 CPUs).
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct CpuSet {
    bits: [u64; 16],
}

impl std::fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries((0..1024).filter(|&cpu| self.contains(cpu)))
            .finish()
    }
}

impl CpuSet {
    /// The set holding only `cpu` (taken modulo 1024).
    pub fn single(cpu: usize) -> CpuSet {
        let mut set = CpuSet { bits: [0; 16] };
        let idx = cpu % 1024;
        set.bits[idx / 64] |= 1u64 << (idx % 64);
        set
    }

    /// Whether `cpu` is in the set.
    pub fn contains(&self, cpu: usize) -> bool {
        cpu < 1024 && self.bits[cpu / 64] & (1u64 << (cpu % 64)) != 0
    }

    /// How many CPUs the set holds.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Where a helper of a thread running on `self` should start, given the
    /// CPUs the process may use: the process's CPUs minus the caller's when
    /// the caller is confined to a strict subset of them (so the difference
    /// is never empty), else `None` — an unpinned caller, or one that
    /// already has every CPU the process has, lets its helpers inherit.
    pub fn helper_mask(&self, process: &CpuSet) -> Option<CpuSet> {
        let subset = (self.bits.iter().zip(&process.bits)).all(|(c, p)| c & !p == 0);
        if !subset || self == process {
            return None;
        }
        let mut rest = *process;
        for (r, c) in rest.bits.iter_mut().zip(&self.bits) {
            *r &= !c;
        }
        Some(rest)
    }

    /// The calling thread's affinity mask.
    pub fn of_current_thread() -> Option<CpuSet> {
        sys::get(0)
    }

    /// The process's CPUs: the mask of its main thread, which is what
    /// `taskset`, a cpuset cgroup or a container runtime set for it.
    pub fn of_process() -> Option<CpuSet> {
        sys::get(std::process::id() as i32)
    }

    /// Confines the calling thread to this set (best effort — containers
    /// and cpuset-restricted runners may refuse). Returns whether it took.
    pub fn pin_current_thread(&self) -> bool {
        sys::set_current(self)
    }
}

/// The mask the calling thread's helpers should have: what
/// [`CpuSet::helper_mask`] says for a pinned caller, else the caller's own
/// — what a thread forked from it would inherit. `None` off Linux.
pub(crate) fn helper_mask_of_caller() -> Option<CpuSet> {
    let own = CpuSet::of_current_thread()?;
    let moved = CpuSet::of_process().and_then(|process| own.helper_mask(&process));
    Some(moved.unwrap_or(own))
}

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }

    /// The mask of thread `pid` (0 = the calling thread).
    pub(super) fn get(pid: i32) -> Option<CpuSet> {
        let mut set = CpuSet { bits: [0; 16] };
        // SAFETY: the mask is a live, writable stack value of exactly the
        // size we pass; the call writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(pid, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub(super) fn set_current(set: &CpuSet) -> bool {
        // SAFETY: pid 0 = calling thread; the mask is a live value of the
        // size we pass, only read by the call.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub(super) fn get(_pid: i32) -> Option<CpuSet> {
        None
    }

    pub(super) fn set_current(_set: &CpuSet) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(cpus: &[usize]) -> CpuSet {
        let mut set = CpuSet { bits: [0; 16] };
        for &cpu in cpus {
            set.bits[cpu / 64] |= 1u64 << (cpu % 64);
        }
        set
    }

    #[test]
    fn helper_mask_is_the_process_minus_a_pinned_caller() {
        let process = set_of(&[0, 1, 2, 70]);
        let helpers = set_of(&[1]).helper_mask(&process).expect("pinned caller");
        assert_eq!(helpers, set_of(&[0, 2, 70]));
        assert_eq!(helpers.count(), 3);
        assert_eq!(format!("{helpers:?}"), "{0, 2, 70}");
        assert_eq!(
            set_of(&[0, 70]).helper_mask(&process),
            Some(set_of(&[1, 2]))
        );
    }

    #[test]
    fn unpinned_or_foreign_callers_let_helpers_inherit() {
        let process = set_of(&[0, 1]);
        assert_eq!(process.helper_mask(&process), None, "unpinned caller");
        // A one-CPU process (`taskset -c 0`): the caller already has it all.
        assert_eq!(CpuSet::single(0).helper_mask(&CpuSet::single(0)), None);
        // A caller on a CPU the main thread may not use is not a subset.
        assert_eq!(set_of(&[0, 5]).helper_mask(&process), None);
        assert!(CpuSet::single(1030).contains(6), "single wraps at 1024");
    }
}
