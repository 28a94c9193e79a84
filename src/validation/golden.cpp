#include "validation/golden.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "validation/figures.hpp"

namespace esteem::validation {

namespace {

// Writer: stable key order and the common/json string and number forms, so a
// load/save round-trip is exact.

void write_series(std::ostringstream& os, const char* key,
                  const std::vector<double>& v, const char* indent) {
  os << indent << '"' << key << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << json::number(v[i]);
  }
  os << ']';
}

std::vector<double> get_series(const json::Value& obj, const char* key) {
  std::vector<double> out;
  for (const json::Value& e : obj.at(key).as_array()) out.push_back(e.as_f64());
  return out;
}

std::vector<std::string> get_strings(const json::Value& obj, const char* key) {
  std::vector<std::string> out;
  for (const json::Value& e : obj.at(key).as_array()) out.push_back(e.as_string());
  return out;
}

}  // namespace

const GoldenFigure* GoldenScale::find_figure(const std::string& id) const {
  for (const GoldenFigure& f : figures) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

const GoldenScale* GoldenFile::find_scale(const std::string& fingerprint) const {
  for (const GoldenScale& s : scales) {
    if (s.fingerprint == fingerprint) return &s;
  }
  return nullptr;
}

void GoldenFile::upsert_scale(GoldenScale scale) {
  for (GoldenScale& s : scales) {
    if (s.fingerprint != scale.fingerprint) continue;
    s.label = std::move(scale.label);
    for (GoldenFigure& fresh : scale.figures) {
      auto old = std::find_if(s.figures.begin(), s.figures.end(),
                              [&](const GoldenFigure& f) { return f.id == fresh.id; });
      if (old != s.figures.end()) {
        *old = std::move(fresh);
      } else {
        s.figures.push_back(std::move(fresh));
      }
    }
    return;
  }
  scales.push_back(std::move(scale));
}

void GoldenFile::record(GoldenScale scale) {
  generator = kGoldenGenerator;
  upsert_scale(std::move(scale));
}

std::string golden_to_json(const GoldenFile& file) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"version\": " << file.version << ",\n";
  os << "  \"generator\": \"" << json::escape(file.generator) << "\",\n";
  os << "  \"scales\": [";
  for (std::size_t si = 0; si < file.scales.size(); ++si) {
    const GoldenScale& s = file.scales[si];
    os << (si == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"fingerprint\": \"" << json::escape(s.fingerprint) << "\",\n";
    os << "      \"label\": \"" << json::escape(s.label) << "\",\n";
    os << "      \"figures\": [";
    for (std::size_t fi = 0; fi < s.figures.size(); ++fi) {
      const GoldenFigure& f = s.figures[fi];
      os << (fi == 0 ? "\n" : ",\n");
      os << "        {\n";
      os << "          \"id\": \"" << json::escape(f.id) << "\",\n";
      for (const FigureMetric& m : figure_metrics()) {
        os << "          \"" << m.key << "\": " << json::number(f.*m.golden) << ",\n";
      }
      os << "          \"workloads\": [";
      for (std::size_t wi = 0; wi < f.workloads.size(); ++wi) {
        if (wi != 0) os << ", ";
        os << '"' << json::escape(f.workloads[wi]) << '"';
      }
      os << "],\n";
      write_series(os, "esteem_energy_savings", f.esteem_energy_savings,
                   "          ");
      os << ",\n";
      write_series(os, "rpv_energy_savings", f.rpv_energy_savings, "          ");
      os << "\n        }";
    }
    os << "\n      ]\n";
    os << "    }";
  }
  os << "\n  ]\n";
  os << "}\n";
  return os.str();
}

GoldenFile golden_from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  GoldenFile file;
  // as_u64 refuses any token that is not a whole unsigned integer (1.7, 1e0).
  const std::uint64_t version = root.at("version").as_u64();
  if (version != kGoldenVersion) {
    std::ostringstream os;
    os << "golden file version " << version << " does not match this "
       << "binary's golden schema version " << kGoldenVersion
       << "; regenerate with `esteem_validate --update-golden`";
    throw std::runtime_error(os.str());
  }
  file.generator = root.at("generator").as_string();

  for (const json::Value& sv : root.at("scales").as_array()) {
    GoldenScale scale;
    scale.fingerprint = sv.at("fingerprint").as_string();
    scale.label = sv.at("label").as_string();
    for (const json::Value& fv : sv.at("figures").as_array()) {
      GoldenFigure fig;
      fig.id = fv.at("id").as_string();
      for (const FigureMetric& m : figure_metrics()) fig.*m.golden = fv.at(m.key).as_f64();
      fig.workloads = get_strings(fv, "workloads");
      fig.esteem_energy_savings = get_series(fv, "esteem_energy_savings");
      fig.rpv_energy_savings = get_series(fv, "rpv_energy_savings");
      scale.figures.push_back(std::move(fig));
    }
    file.scales.push_back(std::move(scale));
  }
  return file;
}

GoldenFile load_golden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open golden file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return golden_from_json(os.str());
}

void save_golden(const std::string& path, const GoldenFile& file) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write golden file: " + path);
  out << golden_to_json(file);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace esteem::validation
