/**
 * @file
 * A small statistics package: named scalar counters and simple
 * distributions grouped per component, with text formatting. Every
 * timing component in the simulator registers its counters here so the
 * benchmark harness can dump a complete machine profile. Scalar
 * counters are bound once (counter()) and bumped through the returned
 * reference; names are never looked up per event.
 */

#ifndef MSIM_COMMON_STATS_HH
#define MSIM_COMMON_STATS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>

namespace msim {

/** A group of named statistics belonging to one simulator component. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /**
     * Bind the named scalar counter (creating it at 0) and return a
     * reference to its value. Components resolve every counter they
     * bump once, at construction, so the simulation hot path
     * increments a plain integer instead of building a string and
     * walking a map. The reference stays valid for the group's
     * lifetime, through later insertions of other names.
     */
    std::uint64_t &
    counter(const std::string &stat)
    {
        return scalars_[stat];
    }

    /** @return the value of a scalar counter (0 when absent). */
    std::uint64_t
    get(const std::string &stat) const
    {
        auto it = scalars_.find(stat);
        return it == scalars_.end() ? 0 : it->second;
    }

    /** @return this group's name. */
    const std::string &name() const { return name_; }

    /** @return all scalar counters in name order. */
    const std::map<std::string, std::uint64_t> &
    scalars() const
    {
        return scalars_;
    }

    /** Add @p delta to bucket @p bucket of distribution @p dist. */
    void
    addToDist(const std::string &dist, const std::string &bucket,
              std::uint64_t delta = 1)
    {
        dists_[dist][bucket] += delta;
    }

    /** @return the value of one distribution bucket (0 when absent). */
    std::uint64_t
    getDist(const std::string &dist, const std::string &bucket) const
    {
        auto it = dists_.find(dist);
        if (it == dists_.end())
            return 0;
        auto jt = it->second.find(bucket);
        return jt == it->second.end() ? 0 : jt->second;
    }

    /** @return all distributions in name order. */
    const std::map<std::string, std::map<std::string, std::uint64_t>> &
    dists() const
    {
        return dists_;
    }

    /** Render "group.stat value" lines (then distribution buckets). */
    std::string format() const;

  private:
    std::string name_;
    std::map<std::string, std::uint64_t> scalars_;
    std::map<std::string, std::map<std::string, std::uint64_t>> dists_;
};

/** A registry of stat groups owned by a processor instance. */
class StatRegistry
{
  public:
    /** Get or create the group with the given name. */
    StatGroup &group(const std::string &name);

    /** @return all groups in creation order. */
    const std::deque<StatGroup> &groups() const { return groups_; }

    /** Render every group. */
    std::string format() const;

  private:
    /** Deque: references returned by group() must remain stable. */
    std::deque<StatGroup> groups_;
};

} // namespace msim

#endif // MSIM_COMMON_STATS_HH
