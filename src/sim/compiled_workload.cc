#include "sim/compiled_workload.hh"

#include <cstdio>

#include "asm/assembler.hh"
#include "common/fnv1a.hh"
#include "common/logging.hh"

namespace msim {

namespace {

/** Fold a string field and its terminator. */
std::uint64_t
fnv1aField(std::uint64_t h, const std::string &s)
{
    // Hash the terminator too, so concatenated fields cannot alias
    // ("ab" + "c" vs "a" + "bc").
    return fnv1a(fnv1a(h, s.data(), s.size()), "\0", 1);
}

} // namespace

std::uint64_t
workloadContentHash(const workloads::Workload &workload, bool multiscalar,
                    const std::set<std::string> &defines, unsigned scale)
{
    std::uint64_t h = kFnv1aBasis;
    h = fnv1aField(h, workload.source);
    h = fnv1a(h, multiscalar ? "ms" : "sc", 2);
    for (const std::string &d : defines)
        h = fnv1aField(h, d);
    h = fnv1a(h, &scale, sizeof(scale));
    return h;
}

std::shared_ptr<const CompiledWorkload>
compileWorkload(const workloads::Workload &workload, bool multiscalar,
                const std::set<std::string> &defines, unsigned scale)
{
    assembler::AsmOptions opts;
    opts.multiscalar = multiscalar;
    opts.defines = defines;
    opts.fileName = workload.name + (multiscalar ? ".ms.s" : ".sc.s");

    auto cw = std::make_shared<CompiledWorkload>();
    cw->workload = workload;
    cw->program = assembler::assemble(workload.source, opts);
    cw->multiscalar = multiscalar;
    cw->defines = defines;
    cw->scale = scale;
    return cw;
}

std::shared_ptr<const CompiledWorkload>
compileWorkload(const std::string &name, bool multiscalar,
                const std::set<std::string> &defines, unsigned scale)
{
    return compileWorkload(workloads::get(name, scale), multiscalar,
                           defines, scale);
}

namespace {

std::string
contentKey(const workloads::Workload &workload, bool multiscalar,
           const std::set<std::string> &defines, unsigned scale)
{
    const std::uint64_t h =
        workloadContentHash(workload, multiscalar, defines, scale);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  (unsigned long long)h);
    return workload.name + "@" + hex;
}

} // namespace

std::string
ProgramCache::key(const std::string &name, bool multiscalar,
                  const std::set<std::string> &defines, unsigned scale)
{
    return contentKey(workloads::get(name, scale), multiscalar, defines,
                      scale);
}

std::shared_ptr<const CompiledWorkload>
ProgramCache::get(const std::string &name, bool multiscalar,
                  const std::set<std::string> &defines, unsigned scale)
{
    // Build the workload up front: the content key hashes its
    // generated source (unknown names throw here, before the map).
    const workloads::Workload workload = workloads::get(name, scale);
    const std::string k =
        contentKey(workload, multiscalar, defines, scale);

    std::promise<Ptr> promise;
    std::shared_future<Ptr> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(k);
        if (it != entries_.end()) {
            ++hits_;
            future = it->second;
        } else {
            ++misses_;
            owner = true;
            future = promise.get_future().share();
            entries_.emplace(k, future);
        }
    }
    if (owner) {
        // Assemble outside the lock so distinct keys compile in
        // parallel; same-key waiters block on the future instead.
        try {
            promise.set_value(
                compileWorkload(workload, multiscalar, defines, scale));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::uint64_t
ProgramCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ProgramCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
ProgramCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
}

} // namespace msim
