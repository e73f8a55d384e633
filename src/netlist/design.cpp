#include "netlist/design.hpp"

#include <deque>
#include <stdexcept>

namespace nw::net {

PinId Design::make_pin(Pin p) {
  const PinId id{pins_.size()};
  pins_.push_back(std::move(p));
  return id;
}

NetId Design::add_net(std::string_view net_name) {
  const NetId id{nets_.size()};
  if (!net_index_.emplace(net_name, id).second) {
    throw std::invalid_argument("Design::add_net: duplicate net '" + std::string(net_name) +
                                "'");
  }
  Net n;
  n.name = net_name;
  nets_.push_back(std::move(n));
  return id;
}

InstId Design::add_instance(std::string_view inst_name, std::string_view cell_name) {
  const auto cell_idx = lib_->find(cell_name);
  if (!cell_idx) {
    throw std::invalid_argument("Design::add_instance: unknown cell '" +
                                std::string(cell_name) + "'");
  }
  const InstId id{insts_.size()};
  if (!inst_index_.emplace(inst_name, id).second) {
    throw std::invalid_argument("Design::add_instance: duplicate instance '" +
                                std::string(inst_name) + "'");
  }
  Instance inst;
  inst.name = inst_name;
  inst.cell = *cell_idx;
  const lib::Cell& cell = lib_->cell(*cell_idx);
  inst.pins.reserve(cell.pins.size());
  for (std::size_t i = 0; i < cell.pins.size(); ++i) {
    Pin p;
    p.kind = PinKind::kInstance;
    p.inst = id;
    p.cell_pin = i;
    inst.pins.push_back(make_pin(std::move(p)));
  }
  insts_.push_back(std::move(inst));
  if (cell.is_sequential()) seqs_.push_back(id);
  return id;
}

void Design::connect(InstId inst, std::string_view pin_name, NetId net) {
  const Instance& instance = insts_.at(inst.index());
  const lib::Cell& cell = lib_->cell(instance.cell);
  const auto pin_idx = cell.find_pin(pin_name);
  if (!pin_idx) {
    throw std::invalid_argument("Design::connect: cell '" + cell.name +
                                "' has no pin '" + std::string(pin_name) + "'");
  }
  const PinId pid = instance.pins.at(*pin_idx);
  Pin& p = pins_.at(pid.index());
  if (p.net.valid()) {
    throw std::invalid_argument("Design::connect: pin already connected: " +
                                this->pin_name(pid));
  }
  p.net = net;
  Net& n = nets_.at(net.index());
  if (cell.pins[*pin_idx].dir == lib::PinDir::kOutput) {
    if (n.driver.valid()) {
      throw std::invalid_argument("Design::connect: net '" + n.name +
                                  "' already has a driver");
    }
    n.driver = pid;
  } else {
    n.loads.push_back(pid);
  }
}

PinId Design::add_port(std::string_view port_name, PinKind kind, NetId net,
                       PortDrive drive, double load_cap) {
  const auto row = static_cast<std::uint32_t>(ports_.size());
  if (!port_index_.emplace(port_name, row).second) {
    throw std::invalid_argument("Design: duplicate port '" + std::string(port_name) + "'");
  }
  Pin p;
  p.kind = kind;
  p.net = net;
  p.port = row;
  const PinId pid = make_pin(p);
  ports_.push_back(Port{std::string(port_name), pid, drive, load_cap});
  return pid;
}

PinId Design::add_input_port(std::string_view port_name, NetId net, PortDrive drive) {
  Net& n = nets_.at(net.index());
  if (n.driver.valid()) {
    throw std::invalid_argument("Design::add_input_port: net '" + n.name +
                                "' already has a driver");
  }
  const PinId pid = add_port(port_name, PinKind::kInputPort, net, drive, 0.0);
  n.driver = pid;
  in_ports_.push_back(pid);
  return pid;
}

PinId Design::add_output_port(std::string_view port_name, NetId net, double load_cap) {
  Net& n = nets_.at(net.index());
  const PinId pid = add_port(port_name, PinKind::kOutputPort, net, {}, load_cap);
  n.loads.push_back(pid);
  out_ports_.push_back(pid);
  return pid;
}

std::string Design::set_instance_cell(InstId inst, const std::string& cell_name) {
  Instance& instance = insts_.at(inst.index());
  const lib::Cell& old_cell = lib_->cell(instance.cell);
  const auto new_idx = lib_->find(cell_name);
  if (!new_idx) {
    throw std::invalid_argument("Design::set_instance_cell: unknown cell '" +
                                cell_name + "'");
  }
  const lib::Cell& new_cell = lib_->cell(*new_idx);
  const auto mismatch = [&](const std::string& what) {
    throw std::invalid_argument("Design::set_instance_cell: cell '" + cell_name +
                                "' is not footprint-compatible with '" +
                                old_cell.name + "' on '" + instance.name +
                                "' (" + what + ")");
  };
  if (new_cell.kind != old_cell.kind) mismatch("sequential kind differs");
  if (new_cell.pins.size() != old_cell.pins.size()) mismatch("pin count differs");
  for (std::size_t i = 0; i < old_cell.pins.size(); ++i) {
    if (new_cell.pins[i].name != old_cell.pins[i].name) mismatch("pin names differ");
    if (new_cell.pins[i].dir != old_cell.pins[i].dir) mismatch("pin directions differ");
    if (new_cell.pins[i].role != old_cell.pins[i].role) mismatch("pin roles differ");
  }
  instance.cell = *new_idx;
  return old_cell.name;
}

std::optional<NetId> Design::find_net(std::string_view net_name) const {
  const auto it = net_index_.find(net_name);
  if (it == net_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<InstId> Design::find_instance(std::string_view inst_name) const {
  const auto it = inst_index_.find(inst_name);
  if (it == inst_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<PinId> Design::find_port(std::string_view port_name) const {
  const auto it = port_index_.find(port_name);
  if (it == port_index_.end()) return std::nullopt;
  return ports_[it->second].pin;
}

const std::string& Design::port_name(PinId id) const {
  const Pin& p = pin(id);
  if (p.kind == PinKind::kInstance) {
    throw std::invalid_argument("Design::port_name: '" + pin_name(id) + "' is not a port pin");
  }
  return ports_[p.port].name;
}

std::string Design::pin_name(PinId id) const {
  const Pin& p = pin(id);
  if (p.kind != PinKind::kInstance) return ports_[p.port].name;
  return instance(p.inst).name + "/" + cell_of(p.inst).pins[p.cell_pin].name;
}

double Design::pin_cap(PinId id) const {
  const Pin& p = pin(id);
  switch (p.kind) {
    case PinKind::kInstance:
      return lib_pin(id).cap;
    case PinKind::kOutputPort:
      return ports_[p.port].load_cap;
    case PinKind::kInputPort:
      return 0.0;
  }
  return 0.0;
}

const PortDrive& Design::port_drive(PinId id) const {
  const Pin& p = pin(id);
  if (p.kind != PinKind::kInputPort) {
    throw std::invalid_argument("Design::port_drive: not an input port pin");
  }
  return ports_[p.port].drive;
}

double Design::driver_resistance(NetId net_id, bool holding) const {
  const Net& n = net(net_id);
  if (!n.driver.valid()) {
    throw std::invalid_argument("Design::driver_resistance: undriven net '" + n.name + "'");
  }
  const Pin& drv = pin(n.driver);
  if (drv.kind == PinKind::kInputPort) return port_drive(n.driver).resistance;
  const lib::Cell& cell = cell_of(drv.inst);
  return holding ? cell.holding_resistance : cell.drive_resistance;
}

std::vector<std::string> Design::lint() const {
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < pins_.size(); ++i) {
    if (!pins_[i].net.valid()) {
      problems.push_back("unconnected pin: " + pin_name(PinId{i}));
    }
  }
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (!nets_[i].driver.valid()) {
      problems.push_back("undriven net: " + nets_[i].name);
    }
    if (nets_[i].loads.empty()) {
      problems.push_back("unloaded net: " + nets_[i].name);
    }
  }
  return problems;
}

std::vector<InstId> Design::topological_order() const {
  // Kahn's algorithm over combinational fanin edges. An instance's inputs
  // that are driven by ports or sequential outputs don't create
  // dependencies; a DFF/latch instance itself has no combinational
  // input->output path, so it is a source for ordering purposes.
  std::vector<std::size_t> fanin_pending(insts_.size(), 0);
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    const lib::Cell& cell = lib_->cell(insts_[i].cell);
    if (cell.is_sequential()) continue;  // sources
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kInput) continue;
      const Pin& p = pins_[insts_[i].pins[pi].index()];
      if (!p.net.valid()) continue;
      const PinId drv = nets_[p.net.index()].driver;
      if (!drv.valid()) continue;
      const Pin& d = pins_[drv.index()];
      if (d.kind == PinKind::kInstance && !lib_->cell(insts_[d.inst.index()].cell).is_sequential()) {
        ++fanin_pending[i];
      }
    }
  }

  std::deque<InstId> ready;
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    if (fanin_pending[i] == 0) ready.push_back(InstId{i});
  }

  std::vector<InstId> order;
  order.reserve(insts_.size());
  while (!ready.empty()) {
    const InstId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    const Instance& inst = insts_[id.index()];
    const lib::Cell& cell = lib_->cell(inst.cell);
    if (cell.is_sequential()) continue;  // Q edges don't gate combinational order
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kOutput) continue;
      const Pin& p = pins_[inst.pins[pi].index()];
      if (!p.net.valid()) continue;
      for (const PinId load : nets_[p.net.index()].loads) {
        const Pin& lp = pins_[load.index()];
        if (lp.kind != PinKind::kInstance) continue;
        const std::size_t li = lp.inst.index();
        if (lib_->cell(insts_[li].cell).is_sequential()) continue;
        if (--fanin_pending[li] == 0) ready.push_back(InstId{li});
      }
    }
  }

  if (order.size() != insts_.size()) {
    for (std::size_t i = 0; i < insts_.size(); ++i) {
      if (fanin_pending[i] > 0) {
        throw std::runtime_error("Design::topological_order: combinational loop through '" +
                                 insts_[i].name + "'");
      }
    }
  }
  return order;
}

std::size_t Design::memory_bytes() const noexcept {
  // Capacity-based, like the other subsystem estimators: counts the heap
  // the containers hold, not just the bytes in use, because capacity is
  // what the process actually pays for.
  const auto string_bytes = [](const std::string& s) {
    return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
  };
  // unordered_map nodes: payload + hash-node overhead (next pointer +
  // cached hash), plus one bucket pointer each.
  constexpr std::size_t kMapNodeOverhead = 2 * sizeof(void*);
  std::size_t bytes = string_bytes(name_);
  bytes += nets_.capacity() * sizeof(Net);
  for (const Net& n : nets_) {
    bytes += string_bytes(n.name) + n.loads.capacity() * sizeof(PinId);
  }
  bytes += insts_.capacity() * sizeof(Instance);
  for (const Instance& i : insts_) {
    bytes += string_bytes(i.name) + i.pins.capacity() * sizeof(PinId);
  }
  bytes += pins_.capacity() * sizeof(Pin);
  bytes += ports_.capacity() * sizeof(Port);
  for (const Port& p : ports_) bytes += string_bytes(p.name);
  bytes += in_ports_.capacity() * sizeof(PinId);
  bytes += out_ports_.capacity() * sizeof(PinId);
  bytes += seqs_.capacity() * sizeof(InstId);
  for (const auto& [name, id] : net_index_) {
    bytes += string_bytes(name) + sizeof(name) + sizeof(id) + kMapNodeOverhead;
  }
  for (const auto& [name, id] : inst_index_) {
    bytes += string_bytes(name) + sizeof(name) + sizeof(id) + kMapNodeOverhead;
  }
  for (const auto& [name, row] : port_index_) {
    bytes += string_bytes(name) + sizeof(name) + sizeof(row) + kMapNodeOverhead;
  }
  bytes += net_index_.bucket_count() * sizeof(void*);
  bytes += inst_index_.bucket_count() * sizeof(void*);
  bytes += port_index_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace nw::net
