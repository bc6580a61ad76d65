#include "dynamic/delta_universe.h"

#include <algorithm>

namespace mube {

namespace {
bool Contains(const std::vector<uint32_t>& ids, uint32_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}
}  // namespace

Result<uint32_t> DeltaUniverse::ResolveLive(const std::string& name) const {
  std::optional<uint32_t> sid = universe_.FindSource(name);
  if (!sid.has_value() || !universe_.alive(*sid)) {
    return Status::NotFound("no live source named '" + name + "'");
  }
  return *sid;
}

Status DeltaUniverse::Apply(const ChurnEvent& event, ChurnDelta* delta) {
  if (delta->empty() && delta->alive_before == 0) {
    delta->alive_before = universe_.alive_count();
  }
  switch (event.kind) {
    case ChurnEvent::Kind::kAddSource: {
      const std::string& name = event.source.name();
      if (name.empty()) {
        return Status::InvalidArgument("AddSource: source has no name");
      }
      std::optional<uint32_t> existing = universe_.FindSource(name);
      if (existing.has_value() && universe_.alive(*existing)) {
        return Status::AlreadyExists("a live source named '" + name +
                                     "' already exists");
      }
      Source copy = event.source;
      const uint32_t id = universe_.AddSource(std::move(copy));
      delta->added.push_back(id);
      return Status::OK();
    }
    case ChurnEvent::Kind::kRemoveSource: {
      MUBE_ASSIGN_OR_RETURN(uint32_t id, ResolveLive(event.source_name));
      universe_.RetireSource(id);
      delta->removed.push_back(id);
      return Status::OK();
    }
    case ChurnEvent::Kind::kUpdateTuples: {
      MUBE_ASSIGN_OR_RETURN(uint32_t id, ResolveLive(event.source_name));
      universe_.UpdateTuples(id, event.tuples);
      // A source added in this same delta is already fully dirty.
      if (!Contains(delta->added, id)) delta->data_changed.push_back(id);
      return Status::OK();
    }
    case ChurnEvent::Kind::kRenameAttribute: {
      MUBE_ASSIGN_OR_RETURN(uint32_t id, ResolveLive(event.source_name));
      MUBE_RETURN_IF_ERROR(universe_.mutable_source(id).RenameAttribute(
          event.attr_index, event.new_name));
      if (!Contains(delta->added, id)) delta->schema_changed.push_back(id);
      return Status::OK();
    }
    case ChurnEvent::Kind::kSetCooperative: {
      MUBE_ASSIGN_OR_RETURN(uint32_t id, ResolveLive(event.source_name));
      MUBE_RETURN_IF_ERROR(
          universe_.mutable_source(id).SetCooperative(event.cooperative));
      if (!Contains(delta->added, id)) delta->data_changed.push_back(id);
      return Status::OK();
    }
  }
  return Status::Internal("unknown churn event kind");
}

Status DeltaUniverse::ApplyAll(const std::vector<ChurnEvent>& events,
                               ChurnDelta* delta, size_t* applied_count) {
  size_t applied = 0;
  for (const ChurnEvent& event : events) {
    Status status = Apply(event, delta);
    if (!status.ok()) {
      if (applied_count != nullptr) *applied_count = applied;
      return status;
    }
    ++applied;
  }
  if (applied_count != nullptr) *applied_count = applied;
  return Status::OK();
}

}  // namespace mube
