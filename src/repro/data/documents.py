"""Unlabelled domain documents, used for the rewriter's denoising fine-tune.

The paper's ``syn*`` variant adapts T5 to a target domain with an
unsupervised sentinel-masking (denoising) task run over raw in-domain text.
A :class:`Document` is the synthetic analogue of a fandom wiki page: a title
plus a few sentences of body text drawn from the same generator that writes
entity descriptions and mention contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass(frozen=True)
class Document:
    """A raw text page belonging to one domain (no linking labels)."""

    document_id: str
    domain: str
    title: str
    text: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "document_id": self.document_id,
            "domain": self.domain,
            "title": self.title,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "Document":
        return cls(**payload)


class DocumentCollection:
    """Documents grouped by domain."""

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._by_domain: Dict[str, List[Document]] = {}
        for document in documents:
            self.add(document)

    def add(self, document: Document) -> None:
        self._by_domain.setdefault(document.domain, []).append(document)

    def domains(self) -> List[str]:
        return sorted(self._by_domain)

    def texts(self, domain: str) -> List[str]:
        """Raw body texts for one domain (denoising training corpus)."""
        return [document.text for document in self._by_domain.get(domain, [])]
